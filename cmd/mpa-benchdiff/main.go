// Command mpa-benchdiff is the repository's performance-regression
// judge: it compares a change's performance records with a base's,
// both measured on the same host in the same minutes, and exits
// non-zero when the change regresses.
//
// Usage:
//
//	mpa-benchdiff BASE CHANGE
//
// scripts/paired.sh builds both sides, runs them side by side and calls
// it. BASE and CHANGE are each one side's records: a file, or
// a directory whose *.json files are read in name order. A records file
// is one of
//
//   - bench records written by scripts/bench.sh (one JSON object per
//     line with ns_per_op / allocs_per_op), every repetition a sample;
//   - an mpa.load-manifest/v1 written by cmd/mpa-loadgen, whose
//     endpoints' p50 and p99 latencies are one sample each, under
//     "load/<endpoint> p50" (or "load[<orgs>]/..." for a tenant-aware
//     run);
//   - an mpa.run-manifest/v1 written by `mpa -manifest`, whose stages'
//     wall time and allocated bytes per call are one sample each.
//
// The rule, for every name both sides recorded:
//
//   - Time (ns/op, a stage's ns per call, a load percentile) regresses
//     when the change's median exceeds the base's by more than
//     timeBound and the change's lower quartile is above the base's
//     upper quartile: a shift bigger than the bound that the two sides'
//     spreads do not explain.
//   - Allocations (allocs/op, a stage's bytes per call) regress when the
//     change's median exceeds the base's by more than allocBound. They
//     barely vary between runs, so no spread condition applies.
//   - A name the base recorded and the change did not fails: a benchmark
//     leaves the judgment only by leaving the scripts/bench.sh pattern
//     both sides run. A name only the change recorded is listed.
//
// Every load manifest of the change must also pass the floor rules on
// its own, whatever the base did: each endpoint of its mix answered at
// least once, and no endpoint has an error rate above maxErrorRate, a
// p50 above maxP50MS or a p99 above maxP99MS.
//
// Exit status: 0 when nothing regressed (improvements are reported but
// never fail), 2 on a regression, a missing name or a floor failure, 1
// on bad usage or unreadable input.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpa/internal/loadgen"
	"mpa/internal/report"
	"mpa/internal/runinfo"
	"mpa/internal/stats"
)

// The judgment's constants.
const (
	// timeBound is the relative median increase a timed metric may
	// show before its quartiles are compared.
	timeBound = 0.20
	// allocBound is the relative median increase allocations may show.
	allocBound = 0.05

	// The floor rules a change's load run must pass alone.
	maxErrorRate = 0.02
	maxP50MS     = 1000
	maxP99MS     = 5000
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run judges the records named by args and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: mpa-benchdiff BASE CHANGE")
		return 1
	}
	base, err := load(args[0])
	if err != nil {
		return fatal(stderr, err)
	}
	change, err := load(args[1])
	if err != nil {
		return fatal(stderr, err)
	}
	if err := checkProcs(base.procs, change.procs); err != nil {
		return fatal(stderr, err)
	}

	rows, regressed := compare(base.samples, change.samples)
	fmt.Fprint(stdout, render(rows))
	var added, removed []string
	for _, r := range rows {
		switch {
		case r.onlyNew:
			added = append(added, r.name)
		case r.onlyOld:
			removed = append(removed, r.name)
		}
	}
	if len(added) > 0 {
		fmt.Fprintf(stdout, "\nonly in change (no base yet): %s\n", strings.Join(added, ", "))
	}
	if len(removed) > 0 {
		fmt.Fprintf(stdout, "\nmissing from change (FAIL): %s\n", strings.Join(removed, ", "))
	}
	failures := floors(change.loads)
	for _, f := range failures {
		fmt.Fprintf(stdout, "floor (FAIL): %s\n", f)
	}
	if regressed || len(failures) > 0 {
		fmt.Fprintf(stdout, "\nFAIL: a median over +%.0f%% time with the change's lower quartile above the base's upper quartile, allocs over +%.0f%%, a name missing from the change, or a floor rule\n",
			timeBound*100, allocBound*100)
		return 2
	}
	fmt.Fprintln(stdout, "\nOK: no regression")
	return 0
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "mpa-benchdiff:", err)
	return 1
}

// sample is one performance observation of a named unit: a benchmark
// repetition, a load percentile, or a manifest stage rollup normalized
// per call.
type sample struct {
	ns     float64 // time per operation: ns, or ms for a load percentile
	allocs float64 // allocations (bench) or bytes (manifest) per operation
}

// benchRecord is one line of a scripts/bench.sh baseline.
type benchRecord struct {
	Name        string  `json:"name"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// loaded is one side's parsed records: the per-name samples, the
// distinct GOMAXPROCS values bench records were taken at, and the load
// manifests the floor rules read.
type loaded struct {
	samples map[string][]sample
	procs   map[int]bool
	loads   []*loadgen.Manifest
}

// load reads one side's records from a file or a directory of *.json
// files.
func load(path string) (loaded, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return loaded{}, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return loaded{}, err
		}
	}
	l := loaded{samples: map[string][]sample{}, procs: map[int]bool{}}
	for _, f := range files {
		if err := l.add(f); err != nil {
			return loaded{}, err
		}
	}
	if len(l.samples) == 0 {
		return loaded{}, fmt.Errorf("%s: no records", path)
	}
	return l, nil
}

// add reads one records file. Manifests are told apart by their schema
// marker; anything else must parse as bench JSON lines.
func (l *loaded) add(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var probe struct {
		Schema string `json:"schema"`
	}
	_ = json.Unmarshal(data, &probe) // a bench file is many JSON values: Schema stays ""
	switch probe.Schema {
	case runinfo.Schema:
		m, err := runinfo.Read(path)
		if err != nil {
			return err
		}
		for _, st := range m.Stages {
			calls := float64(st.Calls)
			l.samples[st.Name] = append(l.samples[st.Name], sample{
				ns:     float64(st.WallNS) / calls,
				allocs: float64(st.AllocBytes) / calls,
			})
		}
		return nil
	case loadgen.Schema:
		m, err := loadgen.Read(path)
		if err != nil {
			return err
		}
		l.loads = append(l.loads, m)
		for ep, st := range m.Endpoints {
			name := phase(m) + "/" + ep
			l.samples[name+" p50"] = append(l.samples[name+" p50"], sample{ns: st.LatencyMS.P50})
			l.samples[name+" p99"] = append(l.samples[name+" p99"], sample{ns: st.LatencyMS.P99})
		}
		return nil
	}
	return l.addBench(path, data)
}

// phase names a load run's shape: "load", or "load[<orgs>]" for a
// tenant-aware run.
func phase(m *loadgen.Manifest) string {
	if m.Config.Orgs == "" {
		return "load"
	}
	return "load[" + m.Config.Orgs + "]"
}

// addBench parses bench.sh JSON lines.
func (l *loaded) addBench(path string, data []byte) error {
	n := 0
	for i, text := range strings.Split(string(data), "\n") {
		if text = strings.TrimSpace(text); text == "" {
			continue
		}
		var rec benchRecord
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return fmt.Errorf("%s:%d: not a bench record: %w", path, i+1, err)
		}
		if rec.Name == "" {
			return fmt.Errorf("%s:%d: bench record without a name", path, i+1)
		}
		if rec.Gomaxprocs > 0 {
			l.procs[rec.Gomaxprocs] = true
		}
		l.samples[rec.Name] = append(l.samples[rec.Name], sample{ns: rec.NsPerOp, allocs: rec.AllocsPerOp})
		n++
	}
	if n == 0 {
		return fmt.Errorf("%s: no benchmark records", path)
	}
	return nil
}

// checkProcs refuses a comparison whose two sides were definitely
// recorded at different GOMAXPROCS: ns/op at 1 proc vs 8 procs measures
// scheduling, not the code, and such a diff would "pass" while hiding
// real regressions. Records that don't carry gomaxprocs (manifests)
// can't be checked and pass through.
func checkProcs(oldP, newP map[int]bool) error {
	if len(oldP) == 0 || len(newP) == 0 {
		return nil
	}
	if !sameSet(oldP, newP) {
		return fmt.Errorf("refusing to diff: sides recorded at different GOMAXPROCS (old: %s, new: %s); record both at one -cpu / GOMAXPROCS",
			procList(oldP), procList(newP))
	}
	return nil
}

func sameSet(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func procList(p map[int]bool) string {
	vals := make([]int, 0, len(p))
	for v := range p {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
}

// stat summarizes one name's samples: the quartiles of its time and the
// median of its allocations.
type stat struct {
	q1, ns, q3 float64
	allocs     float64
}

func summarize(samples []sample) stat {
	ns := make([]float64, len(samples))
	al := make([]float64, len(samples))
	for i, s := range samples {
		ns[i], al[i] = s.ns, s.allocs
	}
	return stat{
		q1:     stats.Percentile(ns, 25),
		ns:     stats.Median(ns),
		q3:     stats.Percentile(ns, 75),
		allocs: stats.Median(al),
	}
}

// row is one rendered comparison.
type row struct {
	name             string
	old, new         stat
	dNS, dAllocs     float64 // relative median deltas; 0 when the base's is 0
	verdict          string
	regressed        bool
	onlyOld, onlyNew bool
}

// compare judges every name in sorted order and reports whether
// anything regressed (see the package doc for the rule).
func compare(oldS, newS map[string][]sample) ([]row, bool) {
	names := map[string]bool{}
	for n := range oldS {
		names[n] = true
	}
	for n := range newS {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	var rows []row
	anyRegressed := false
	for _, name := range sorted {
		r := row{name: name}
		switch {
		case len(oldS[name]) == 0:
			r.new = summarize(newS[name])
			r.verdict, r.onlyNew = "only in change", true
		case len(newS[name]) == 0:
			r.old = summarize(oldS[name])
			r.verdict, r.onlyOld, r.regressed = "MISSING FROM CHANGE", true, true
		default:
			r.old, r.new = summarize(oldS[name]), summarize(newS[name])
			r.dNS = rel(r.old.ns, r.new.ns)
			r.dAllocs = rel(r.old.allocs, r.new.allocs)
			switch {
			case r.dNS > timeBound && r.new.q1 > r.old.q3:
				r.verdict, r.regressed = "REGRESSION", true
			case r.dAllocs > allocBound:
				r.verdict, r.regressed = "ALLOC REGRESSION", true
			case r.dNS < -timeBound && r.new.q3 < r.old.q1:
				r.verdict = "improved"
			default:
				r.verdict = "ok"
			}
		}
		anyRegressed = anyRegressed || r.regressed
		rows = append(rows, r)
	}
	return rows, anyRegressed
}

// rel is the relative delta (new-old)/old, 0 when old is 0.
func rel(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}

// floors checks each load manifest against the floor rules and returns
// one line per failure.
func floors(loads []*loadgen.Manifest) []string {
	var out []string
	for i, m := range loads {
		run := fmt.Sprintf("%s run %d", phase(m), i+1)
		mix, err := loadgen.ParseMix(m.Config.Mix)
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", run, err))
		}
		for _, e := range mix {
			if m.Endpoints[e.Endpoint].Requests == 0 {
				out = append(out, fmt.Sprintf("%s: %s in the mix but never answered", run, e.Endpoint))
			}
		}
		eps := make([]string, 0, len(m.Endpoints))
		for ep := range m.Endpoints {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		for _, ep := range eps {
			st := m.Endpoints[ep]
			if st.ErrorRate > maxErrorRate {
				out = append(out, fmt.Sprintf("%s: %s error rate %.3g > %.3g", run, ep, st.ErrorRate, float64(maxErrorRate)))
			}
			if st.LatencyMS.P50 > maxP50MS {
				out = append(out, fmt.Sprintf("%s: %s p50 %.4g ms > %d ms", run, ep, st.LatencyMS.P50, maxP50MS))
			}
			if st.LatencyMS.P99 > maxP99MS {
				out = append(out, fmt.Sprintf("%s: %s p99 %.4g ms > %d ms", run, ep, st.LatencyMS.P99, maxP99MS))
			}
		}
	}
	return out
}

// render draws the comparison table: each side's median with its
// quartiles, and the median deltas.
func render(rows []row) string {
	tb := report.NewTable("Name", "Base median [q1, q3]", "Change median [q1, q3]", "Δ", "Δallocs", "Verdict")
	for _, r := range rows {
		if r.onlyOld || r.onlyNew {
			tb.AddRow(r.name, cell(r.onlyNew, r.old), cell(r.onlyOld, r.new), "-", "-", r.verdict)
			continue
		}
		tb.AddRow(r.name, cell(false, r.old), cell(false, r.new),
			fmt.Sprintf("%+.1f%%", r.dNS*100), fmt.Sprintf("%+.1f%%", r.dAllocs*100),
			r.verdict)
	}
	return tb.String()
}

// cell renders one side's time summary, or "-" when that side is
// missing.
func cell(missing bool, s stat) string {
	if missing {
		return "-"
	}
	return fmt.Sprintf("%s [%s, %s]", num(s.ns), num(s.q1), num(s.q3))
}

// num renders a time: whole units from 1000 up, else four significant
// digits.
func num(v float64) string {
	if v >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}
