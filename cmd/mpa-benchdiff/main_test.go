package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mpa/internal/loadgen"
	"mpa/internal/runinfo"
)

// benchFile writes a bench.sh-style JSON-lines baseline.
func benchFile(t *testing.T, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const (
	recA1 = `{"date":"2026-08-05T00:00:00Z","gomaxprocs":1,"name":"BenchmarkInference","iterations":2,"ns_per_op":1000,"bytes_per_op":10,"allocs_per_op":100}`
	recA2 = `{"date":"2026-08-05T00:00:00Z","gomaxprocs":1,"name":"BenchmarkInference","iterations":2,"ns_per_op":1100,"bytes_per_op":10,"allocs_per_op":100}`
	recA3 = `{"date":"2026-08-05T00:00:00Z","gomaxprocs":1,"name":"BenchmarkInference","iterations":2,"ns_per_op":900,"bytes_per_op":10,"allocs_per_op":100}`
)

func TestLoadBenchLines(t *testing.T) {
	path := benchFile(t, "bench.json", recA1, recA2, "", recA3)
	s, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.samples["BenchmarkInference"]); got != 3 {
		t.Fatalf("loaded %d samples, want 3", got)
	}
	if len(s.procs) != 1 || !s.procs[1] {
		t.Errorf("procs = %v, want {1}", s.procs)
	}
	m := summarize(s.samples["BenchmarkInference"])
	if m.ns != 1000 || m.allocs != 100 || m.q1 != 950 || m.q3 != 1050 {
		t.Errorf("summary = %+v, want ns=1000 [950, 1050] allocs=100", m)
	}
}

func TestLoadManifest(t *testing.T) {
	m := runinfo.New()
	m.Stages = []runinfo.Stage{
		{Name: "inference", Calls: 2, WallNS: 2000, AllocBytes: 600},
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	s, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	got := s.samples["inference"]
	if len(got) != 1 || got[0].ns != 1000 || got[0].allocs != 300 {
		t.Errorf("manifest samples = %+v, want one per-call sample ns=1000 allocs=300", got)
	}
	if len(s.procs) != 0 {
		t.Errorf("manifest procs = %v, want empty (format carries none)", s.procs)
	}
}

// loadManifest is a load run of the default mix in which every endpoint
// answered 10 requests at the given p50 and p99 (ms).
func loadManifest(orgs string, p50, p99 float64) *loadgen.Manifest {
	m := &loadgen.Manifest{
		Schema:    loadgen.Schema,
		CreatedAt: time.Date(2026, 10, 20, 0, 0, 0, 0, time.UTC),
		Config:    loadgen.Config{Mix: loadgen.DefaultMix, Orgs: orgs},
		Endpoints: map[string]loadgen.EndpointStats{},
	}
	mix, _ := loadgen.ParseMix(loadgen.DefaultMix)
	for _, e := range mix {
		m.Endpoints[e.Endpoint] = loadgen.EndpointStats{
			Requests:  10,
			LatencyMS: loadgen.Latency{P50: p50, P99: p99, Min: p50, Max: p99},
		}
		m.Totals.Requests += 10
	}
	return m
}

// TestLoadDirectory reads one side as a paired run leaves it: bench
// lines and load manifests of several rounds in one directory.
func TestLoadDirectory(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bench.json"), []byte(recA1+"\n"+recA2+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*loadgen.Manifest{
		"load-1.json":      loadManifest("", 1, 2),
		"load-2.json":      loadManifest("", 3, 4),
		"load-orgs-1.json": loadManifest("acme,globex", 5, 6),
	} {
		if err := m.Write(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.samples["BenchmarkInference"]); got != 2 {
		t.Errorf("bench samples = %d, want 2", got)
	}
	if got := s.samples["load/rank p99"]; len(got) != 2 || got[0].ns != 2 || got[1].ns != 4 {
		t.Errorf("load/rank p99 = %+v, want 2 then 4", got)
	}
	if got := s.samples["load[acme,globex]/manifest p50"]; len(got) != 1 || got[0].ns != 5 {
		t.Errorf("tenant-aware manifest p50 = %+v, want one sample of 5", got)
	}
	if len(s.loads) != 3 {
		t.Errorf("kept %d load manifests, want 3", len(s.loads))
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	path := benchFile(t, "junk.json", "not json at all")
	if _, err := load(path); err == nil {
		t.Fatal("load accepted garbage")
	}
	empty := benchFile(t, "empty.json", "")
	if _, err := load(empty); err == nil {
		t.Fatal("load accepted an empty baseline")
	}
	if _, err := load(t.TempDir()); err == nil {
		t.Fatal("load accepted a directory without records")
	}
}

func TestCheckProcsMismatchRefuses(t *testing.T) {
	// A 1-proc base vs an 8-proc change measures scheduling, not code:
	// the comparison must be refused, not silently passed.
	err := checkProcs(map[int]bool{1: true}, map[int]bool{8: true})
	if err == nil {
		t.Fatal("GOMAXPROCS mismatch not refused")
	}
	for _, want := range []string{"old: 1", "new: 8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestCheckProcsMatchingOrUnknownPasses(t *testing.T) {
	cases := []struct {
		name     string
		old, new map[int]bool
	}{
		{"matching", map[int]bool{4: true}, map[int]bool{4: true}},
		{"old unknown", nil, map[int]bool{8: true}},
		{"new unknown", map[int]bool{1: true}, map[int]bool{}},
		{"both unknown", nil, nil},
		{"matching multi", map[int]bool{1: true, 4: true}, map[int]bool{4: true, 1: true}},
	}
	for _, c := range cases {
		if err := checkProcs(c.old, c.new); err != nil {
			t.Errorf("%s: unexpected refusal: %v", c.name, err)
		}
	}
	if err := checkProcs(map[int]bool{1: true, 4: true}, map[int]bool{4: true}); err == nil {
		t.Error("subset proc sets not refused")
	}
}

// TestMedianEven pins the median a row is judged by: the mean of the
// two middle samples for an even count.
func TestMedianEven(t *testing.T) {
	if got := summarize(series(0, 4, 1, 3, 2)).ns; got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := summarize(series(0, 5, 1, 3)).ns; got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

// series is one name's samples: a time each, all at allocs.
func series(allocs float64, ns ...float64) []sample {
	out := make([]sample, len(ns))
	for i, v := range ns {
		out[i] = sample{ns: v, allocs: allocs}
	}
	return out
}

// gate judges one name "b" recorded by both sides.
func gate(t *testing.T, base, change []sample) (row, bool) {
	t.Helper()
	rows, regressed := compare(map[string][]sample{"b": base}, map[string][]sample{"b": change})
	if len(rows) != 1 {
		t.Fatalf("rows = %+v, want one", rows)
	}
	return rows[0], regressed
}

// A tight base: median 1000, quartiles [990, 1010].
var tight = series(100, 980, 990, 1000, 1010, 1020)

func TestCompareIdenticalPasses(t *testing.T) {
	r, regressed := gate(t, tight, tight)
	if regressed {
		t.Fatal("identical inputs flagged as regression")
	}
	if r.verdict != "ok" {
		t.Errorf("verdict = %q, want ok", r.verdict)
	}
}

func TestCompareDetectsNSRegression(t *testing.T) {
	// Both conditions hold: the median is 30% up, and every change
	// sample is above every base sample.
	r, regressed := gate(t, tight, series(100, 1280, 1290, 1300, 1310, 1320))
	if !regressed {
		t.Fatal("30% ns regression with separated quartiles not flagged")
	}
	if r.verdict != "REGRESSION" {
		t.Errorf("verdict = %q, want REGRESSION", r.verdict)
	}
}

func TestCompareMedianOverBoundOverlappingQuartilesPasses(t *testing.T) {
	// The median is 30% up, but the change's lower quartile (900) sits
	// below the base's upper quartile (1010): spread, not a shift.
	if r, regressed := gate(t, tight, series(100, 600, 900, 1300, 1350, 1400)); regressed {
		t.Fatalf("overlapping quartiles flagged: %+v", r)
	}
}

func TestCompareNoiseWithinThresholdPasses(t *testing.T) {
	// Quartiles separate, but the median moved 15%: within the bound.
	if r, regressed := gate(t, tight, series(100, 1130, 1140, 1150, 1160, 1170)); regressed {
		t.Fatalf("15%% shift flagged despite the %.0f%% bound: %+v", timeBound*100, r)
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	// Allocations barely vary, so a median over the bound fails alone,
	// with the times unchanged.
	r, regressed := gate(t, tight, series(100*(1+allocBound)+1, 980, 990, 1000, 1010, 1020))
	if !regressed || r.verdict != "ALLOC REGRESSION" {
		t.Fatalf("allocs over the bound not flagged: %+v", r)
	}
	if _, regressed := gate(t, tight, series(100*(1+allocBound)-1, 980, 990, 1000, 1010, 1020)); regressed {
		t.Fatal("allocs within the bound flagged")
	}
}

func TestCompareImprovementNeverFails(t *testing.T) {
	r, regressed := gate(t, tight, series(90, 680, 690, 700, 710, 720))
	if regressed {
		t.Fatal("improvement flagged as regression")
	}
	if r.verdict != "improved" {
		t.Errorf("verdict = %q, want improved", r.verdict)
	}
}

func TestCompareAddedNameNeverFails(t *testing.T) {
	// A benchmark that only the change records has no base yet:
	// informational, not a regression.
	base := map[string][]sample{"b": tight}
	change := map[string][]sample{"b": tight, "fresh": tight}
	rows, regressed := compare(base, change)
	if regressed {
		t.Fatal("added name treated as regression")
	}
	for _, r := range rows {
		if r.name == "fresh" && (r.verdict != "only in change" || !r.onlyNew) {
			t.Errorf("fresh row = %+v", r)
		}
	}
}

func TestCompareRemovedBaselineNameFails(t *testing.T) {
	// A name the base recorded and the change did not fails: deleting
	// or renaming a benchmark must not silently remove its coverage.
	base := map[string][]sample{"b": tight, "gone": tight}
	change := map[string][]sample{"b": tight}
	rows, regressed := compare(base, change)
	if !regressed {
		t.Fatal("base name missing from the change did not fail")
	}
	found := false
	for _, r := range rows {
		if r.name == "gone" {
			found = true
			if !r.onlyOld || !r.regressed || r.verdict != "MISSING FROM CHANGE" {
				t.Errorf("gone row = %+v", r)
			}
		}
		if r.name == "b" && r.regressed {
			t.Errorf("unchanged row flagged: %+v", r)
		}
	}
	if !found {
		t.Fatal("removed name not reported in rows")
	}
}

// TestFloorsHealthyPass: a healthy run breaks no floor rule.
func TestFloorsHealthyPass(t *testing.T) {
	if got := floors([]*loadgen.Manifest{loadManifest("", 1, 3), loadManifest("acme,globex", 1, 3)}); len(got) != 0 {
		t.Fatalf("healthy runs failed the floors: %v", got)
	}
}

// floorBreak breaks one floor rule with edit on the change's side of a
// paired judgment whose base is healthy and equal in every timed row,
// so only the floor can fail it, and checks that the one failure names
// wants.
func floorBreak(t *testing.T, edit func(m *loadgen.Manifest), wants string) {
	t.Helper()
	healthy := loadManifest("", 1, 3)
	m := loadManifest("", 1, 3)
	edit(m)
	got := floors([]*loadgen.Manifest{healthy, m})
	if len(got) != 1 || !strings.Contains(got[0], "load run 2: "+wants) {
		t.Fatalf("floors = %q, want one failure naming %q", got, wants)
	}
	if base := floors([]*loadgen.Manifest{healthy}); len(base) != 0 {
		t.Fatalf("healthy base failed: %v", base)
	}
}

func TestFloorsMissingEndpointFails(t *testing.T) {
	floorBreak(t, func(m *loadgen.Manifest) {
		delete(m.Endpoints, "manifest")
	}, "manifest in the mix but never answered")
}

// TestFloorsErrorRateFails: an error rate over maxErrorRate fails; one
// at the limit does not.
func TestFloorsErrorRateFails(t *testing.T) {
	floorBreak(t, func(m *loadgen.Manifest) {
		st := m.Endpoints["rank"]
		st.Errors, st.ErrorRate = 1, 0.1
		m.Endpoints["rank"] = st
	}, "rank error rate 0.1 > 0.02")
	m := loadManifest("", 1, 3)
	st := m.Endpoints["rank"]
	st.ErrorRate = maxErrorRate
	m.Endpoints["rank"] = st
	if got := floors([]*loadgen.Manifest{m}); len(got) != 0 {
		t.Fatalf("error rate at the limit failed: %v", got)
	}
}

// TestFloorsLatencyFails: a p50 or a p99 one millisecond over its limit
// fails.
func TestFloorsLatencyFails(t *testing.T) {
	t.Run("p50", func(t *testing.T) {
		floorBreak(t, func(m *loadgen.Manifest) {
			st := m.Endpoints["causal"]
			st.LatencyMS.P50 = maxP50MS + 1
			m.Endpoints["causal"] = st
		}, "causal p50 1001 ms > 1000 ms")
	})
	t.Run("p99", func(t *testing.T) {
		floorBreak(t, func(m *loadgen.Manifest) {
			st := m.Endpoints["report"]
			st.LatencyMS.P99 = maxP99MS + 1
			m.Endpoints["report"] = st
		}, "report p99 5001 ms > 5000 ms")
	})
}

// pairedDirs writes a base and a change directory as a paired run
// leaves them, both with the same bench lines and one load manifest
// each; the change's manifest is loadManifest edited by edit.
func pairedDirs(t *testing.T, edit func(m *loadgen.Manifest)) (base, change string) {
	t.Helper()
	base, change = t.TempDir(), t.TempDir()
	for _, dir := range []string{base, change} {
		if err := os.WriteFile(filepath.Join(dir, "bench.json"), []byte(recA1+"\n"+recA2+"\n"+recA3+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		m := loadManifest("", 1, 3)
		if dir == change {
			edit(m)
		}
		if err := m.Write(filepath.Join(dir, "load-1.json")); err != nil {
			t.Fatal(err)
		}
	}
	return base, change
}

// TestRunHealthyPairExits0 judges two equal, healthy sides end to end.
func TestRunHealthyPairExits0(t *testing.T) {
	base, change := pairedDirs(t, func(*loadgen.Manifest) {})
	var out, errb strings.Builder
	if code := run([]string{base, change}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"BenchmarkInference", "load/rank p99", "OK: no regression"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunFloorBreakExits2 pins the CI contract end to end: a change
// whose timed rows all equal the base's still exits 2 when its load run
// breaks a floor rule, and bad usage exits 1.
func TestRunFloorBreakExits2(t *testing.T) {
	base, change := pairedDirs(t, func(m *loadgen.Manifest) {
		st := m.Endpoints["rank"]
		st.LatencyMS.P99 = maxP99MS + 1
		m.Endpoints["rank"] = st
	})
	var out, errb strings.Builder
	if code := run([]string{base, change}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{"floor (FAIL): load run 1: rank p99 5001 ms > 5000 ms", "\nFAIL: "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{base}, &out, &errb); code != 1 || !strings.Contains(errb.String(), "usage") {
		t.Fatalf("one argument: exit = %d, stderr %q; want 1 and usage", code, errb.String())
	}
}

func TestRenderTable(t *testing.T) {
	r, _ := gate(t, tight, series(100, 1280, 1290, 1300, 1310, 1320))
	out := render([]row{r})
	for _, want := range []string{"Name", "b", "1000 [990, 1010]", "1300 [1290, 1310]", "+30.0%", "REGRESSION"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
