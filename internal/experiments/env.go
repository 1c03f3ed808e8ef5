// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md §4). Each
// experiment consumes a shared Env — a generated OSP plus the inference
// output and case matrix — and returns a Report holding rendered text and
// the key numbers, so tests and benchmarks can assert on result shape.
//
// It holds the one implementation of each of the paper's analyses —
// MIRanking (§5.1), Causal (§5.2), Learner (§6.1) and Online (§6.2) —
// which the framework's queries call too. The ranking and the causal runs
// are memoized on the Env (Memoized), so reports and queries share them.
package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"mpa/internal/cache"
	"mpa/internal/dataset"
	"mpa/internal/months"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/par"
	"mpa/internal/practices"
)

// Env is the shared input of all experiments.
type Env struct {
	Params   osp.Params
	OSP      *osp.OSP
	Analysis map[string][]practices.MonthAnalysis
	Data     *dataset.Dataset
	// Facts are the design facts of each analyzed device at the end of
	// the window (practices.Facts): an ingest's engine starts from them,
	// so a device with no snapshot in the ingested month is not parsed.
	// Empty when no walk produced them (networks the disk tier
	// answered, a hand-assembled Env); the engine then parses every
	// entering snapshot.
	Facts practices.Facts
	// Obs is the pipeline's stage table (obs.NewStageTable): the
	// generation/inference/dataset stages, every experiment run and every
	// cold analysis fold into its per-stage rows as they end. Nil on
	// hand-assembled Envs — all instrumentation degrades to no-ops.
	Obs *obs.Span

	// memo holds the answers to whole-organization analyses over this
	// snapshot, and netMemo each analyzed network's answers. netMemo is
	// built with the Env and never mutated afterwards. counts tallies
	// every lookup in either (Memoized) and is shared by all the Envs
	// Evolve derives from one. An Env assembled by hand has none of the
	// three: it computes every call and counts nothing.
	memo    *cache.Memo
	netMemo map[string]*cache.Memo
	counts  *memoCounts

	// cases indexes Data by network and month; built on first Case.
	casesOnce sync.Once
	cases     map[string]map[months.Month]*dataset.Case

	// dataDigest is DataDigest's value, computed on first use.
	dataOnce   sync.Once
	dataDigest [sha256.Size]byte

	// digests records the SHA-256 of every report produced through Run,
	// keyed by experiment ID, for the run manifest. Run executes
	// concurrently under RunAll, hence the lock.
	digestMu sync.Mutex
	digests  map[string]string
}

// RecordDigest stores a report's digest under its experiment ID. Run
// records every report it produces; a caller that answers a report from
// a stored copy records the digest the copy carries.
func (e *Env) RecordDigest(id, digest string) {
	e.digestMu.Lock()
	defer e.digestMu.Unlock()
	if e.digests == nil {
		e.digests = make(map[string]string, 24)
	}
	e.digests[id] = digest
}

// ReportDigests returns a copy of the digests of every experiment run
// so far (manifest report_digests).
func (e *Env) ReportDigests() map[string]string {
	e.digestMu.Lock()
	defer e.digestMu.Unlock()
	out := make(map[string]string, len(e.digests))
	maps.Copy(out, e.digests)
	return out
}

// NewEnv generates an OSP, runs practice inference over the full study
// window with the practice engine's per-network inference cache
// configured by cc, and assembles the case matrix. The returned Env
// carries the stage table that all three stages folded into.
//
// Generation and inference run their per-network loops on up to
// par.Workers goroutines; the Env is byte-identical at every worker
// count. Caching never changes the Env's contents — cold, warm, and
// disabled runs are byte-identical (TestCacheEquivalence).
func NewEnv(p osp.Params, cc cache.Config) (*Env, error) {
	root := obs.NewStageTable("pipeline")
	env, err := Infer(osp.GenerateObs(p, root), cc, root)
	if err != nil {
		return nil, fmt.Errorf("experiments: inference failed: %w", err)
	}
	return env, nil
}

// Infer runs practice inference over o's study window on up to
// par.Workers goroutines, with the per-network inference cache
// configured by cc, builds the case matrix, and wraps both in an Env with
// empty memos and zeroed memo counts. root records the stages.
func Infer(o *osp.OSP, cc cache.Config, root *obs.Span) (*Env, error) {
	engine := practices.NewEngine(o.Inventory, o.Archive)
	engine.SetObs(root)
	engine.SetCache(cc)
	analysis, err := engine.Analyze(o.Params.Months())
	if err != nil {
		return nil, err
	}
	env := assemble(o.Params, o, analysis, dataset.BuildObs(analysis, o.Tickets, root), root, nil, new(memoCounts))
	env.Facts = engine.Facts()
	return env, nil
}

// assemble builds an Env with one memo per analyzed network, taken from
// carry when it holds the network and fresh otherwise.
func assemble(p osp.Params, o *osp.OSP, analysis map[string][]practices.MonthAnalysis, data *dataset.Dataset, root *obs.Span, carry map[string]*cache.Memo, counts *memoCounts) *Env {
	e := &Env{Params: p, OSP: o, Analysis: analysis, Data: data, Obs: root,
		memo: new(cache.Memo), netMemo: make(map[string]*cache.Memo, len(analysis)), counts: counts}
	for n := range analysis {
		m := carry[n]
		if m == nil {
			m = new(cache.Memo)
		}
		e.netMemo[n] = m
	}
	return e
}

// Process-wide memo counters ("cache.query.*" in /metrics, /debug/vars,
// and run manifests).
var (
	queryHits   = obs.GetCounter("cache.query.mem_hits")
	queryMisses = obs.GetCounter("cache.query.mem_misses")
)

// memoCounts counts memo lookups: a hit is a call that found a finished
// or in-flight answer, a miss a call that computed one.
type memoCounts struct{ hits, misses atomic.Int64 }

// MemoCounts returns the memo lookups counted so far by e and every Env
// it evolved from.
func (e *Env) MemoCounts() (hits, misses int64) {
	if e.counts == nil {
		return 0, 0
	}
	return e.counts.hits.Load(), e.counts.misses.Load()
}

// Stored reports whether network's memo (the whole organization's for
// "") holds key's answer, finished or in flight, without computing it or
// counting a lookup. A caller uses it to decide whether an answer is
// worth a pool job; the answer itself still comes from Memoized.
func Stored(e *Env, network, key string) bool {
	return e.memoFor(network).Has(key)
}

// memoFor returns network's memo, or the whole organization's for "".
func (e *Env) memoFor(network string) *cache.Memo {
	if network != "" {
		return e.netMemo[network]
	}
	return e.memo
}

// Memoized returns the answer stored under key in network's memo (the
// whole organization's for "") and computes it on a miss. Reports and the
// framework's queries all look up through it, so an analysis runs once
// per snapshot whoever asks first, and every lookup counts in MemoCounts
// and cache.query.*. A network the snapshot does not hold has no memo
// (outside input never grows the memo set) and computes every call.
// Errors are not stored. Stored answers are shared: treat them as
// read-only.
func Memoized[T any](e *Env, network, key string, compute func() (T, error)) (T, error) {
	v, hit, err := e.memoFor(network).Do(key, func() (any, error) { return compute() })
	if e.counts != nil {
		n, g := &e.counts.misses, queryMisses
		if hit {
			n, g = &e.counts.hits, queryHits
		}
		n.Add(1)
		g.Add(1)
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// Evolve returns a new Env holding the given (spliced) data and the
// window-end design facts of the engine that analyzed it, while
// carrying over e's stage table, memo counts and the report
// digests recorded so far. The new snapshot starts a fresh
// whole-organization memo and fresh memos for the touched networks;
// untouched networks share e's memos, since their answers are unchanged.
// The incremental ingest path builds each post-update state as a fresh
// Env and swaps it in atomically, so in-flight queries keep reading a
// consistent snapshot; the shared stage table and counts mean pipeline
// stats and memo counts keep accruing across updates. The digest map is
// copied, never shared — re-run experiments on the evolved Env overwrite
// their entries without racing readers of the old one.
func (e *Env) Evolve(p osp.Params, o *osp.OSP, analysis map[string][]practices.MonthAnalysis, data *dataset.Dataset, touched []string, facts practices.Facts) *Env {
	carry := maps.Clone(e.netMemo)
	for _, n := range touched {
		delete(carry, n)
	}
	ne := assemble(p, o, analysis, data, e.Obs, carry, e.counts)
	ne.Facts = facts
	e.digestMu.Lock()
	defer e.digestMu.Unlock()
	if len(e.digests) > 0 {
		ne.digests = maps.Clone(e.digests)
	}
	return ne
}

// DataDigest returns the SHA-256 of the snapshot's case matrix: for each
// case in order, its network (length-prefixed), month, ticket count and
// the IEEE bits of its 28 metrics in practices.MetricNames order, all
// as little-endian 64-bit words. Two snapshots with equal digests hand
// every analysis that reads only Params and Data the same cases. It is
// computed once per Env, on first use.
func (e *Env) DataDigest() [sha256.Size]byte {
	e.dataOnce.Do(func() {
		h := sha256.New()
		var buf []byte
		for i := range e.Data.Cases {
			c := &e.Data.Cases[i]
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(len(c.Network)))
			buf = append(buf, c.Network...)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Month.Year))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Month.Mon))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Tickets))
			for _, name := range practices.MetricNames {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(c.Metrics[name]))
			}
			h.Write(buf)
		}
		h.Sum(e.dataDigest[:0])
	})
	return e.dataDigest
}

// Window returns the study months.
func (e *Env) Window() []months.Month { return e.Params.Months() }

// Case returns the dataset's observation for one network-month, or false
// when the network or month is not in the dataset. The lookup index is
// built once per Env, on first use.
func (e *Env) Case(network string, m months.Month) (*dataset.Case, bool) {
	e.casesOnce.Do(func() {
		e.cases = make(map[string]map[months.Month]*dataset.Case, len(e.Analysis))
		perNetwork := len(e.Window())
		for i := range e.Data.Cases {
			c := &e.Data.Cases[i]
			byMonth := e.cases[c.Network]
			if byMonth == nil {
				byMonth = make(map[months.Month]*dataset.Case, perNetwork)
				e.cases[c.Network] = byMonth
			}
			byMonth[c.Month] = c
		}
	})
	c, ok := e.cases[network][m]
	return c, ok
}

// Report is one experiment's output.
type Report struct {
	// ID is the experiment identifier, e.g. "table3" or "figure8".
	ID string
	// Title restates what the paper's table/figure shows.
	Title string
	// Text is the rendered result.
	Text string
	// Numbers carries the key quantities for programmatic assertions.
	Numbers map[string]float64

	// digest is Digest's value, filled by Run so that a memoized report
	// is hashed once however often it is served.
	digest string
}

// Digest returns the SHA-256 hex digest of the report's full content —
// ID, title, rendered text, and the key numbers in sorted order. Fields
// are length-framed so no two distinct reports collide by field
// shifting. A deterministic pipeline must produce byte-identical
// digests for identical configs; run manifests record them so two runs
// can be diffed. A report Run returned was hashed when it ran, and is
// read-only like every memoized answer.
func (r Report) Digest() string {
	if r.digest != "" {
		return r.digest
	}
	h := sha256.New()
	frame := func(s string) {
		fmt.Fprintf(h, "%d:", len(s))
		h.Write([]byte(s))
	}
	frame(r.ID)
	frame(r.Title)
	frame(r.Text)
	keys := make([]string, 0, len(r.Numbers))
	for k := range r.Numbers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		frame(k)
		frame(strconv.FormatFloat(r.Numbers[k], 'g', -1, 64))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Runner executes one experiment against an Env.
type Runner func(*Env) Report

// Registry lists every experiment in paper order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"figure2", Figure2},
		{"figure3", Figure3},
		{"figure4", Figure4},
		{"figure5", Figure5},
		{"table2", Table2},
		{"figure6", Figure6},
		{"table3", Table3},
		{"table4", Table4},
		{"table5", Table5},
		{"table6", Table6},
		{"table7", Table7},
		{"table8", Table8},
		{"section61", Section61},
		{"figure8", Figure8},
		{"figure9", Figure9},
		{"figure10", Figure10},
		{"table9", Table9},
		{"figure11", Figure11},
		{"figure12", Figure12},
		{"figure13", Figure13},
		{"ablation-binning", AblationBinning},
		{"ablation-matching", AblationMatching},
		{"ablation-learners", AblationLearners},
		{"ablation-grouping", AblationGrouping},
	}
}

// readsOnlyData holds every experiment ID, true for the reports that
// read nothing of their Env but Params and Data; false for the ones
// that read the OSP's inventory, archive or tickets, or the per-network
// analysis rows.
var readsOnlyData = func() map[string]bool {
	readsSubstrates := []string{"table2", "figure3", "figure11", "figure12", "figure13", "ablation-grouping"}
	ids := IDs()
	m := make(map[string]bool, len(ids))
	for _, id := range ids {
		m[id] = !slices.Contains(readsSubstrates, id)
	}
	return m
}()

// ReadsOnlyData reports whether id names a report that reads nothing of
// its Env but Params and Data, so that two Envs agreeing on those two
// produce the same report.
func ReadsOnlyData(id string) bool { return readsOnlyData[id] }

// Run executes the experiment with the given ID, or returns false. Each
// run is recorded as an "experiment:<id>" stage on the Env's stage table.
func Run(env *Env, id string) (Report, bool) {
	for _, entry := range Registry() {
		if entry.ID == id {
			sp := env.Obs.Start("experiment:" + id)
			r := entry.Run(env)
			sp.End()
			r.digest = r.Digest()
			env.RecordDigest(id, r.digest)
			obs.GetCounter("experiments.runs").Add(1)
			obs.Logger().Debug("experiment complete", "id", id, "elapsed", sp.Duration())
			return r, true
		}
	}
	return Report{}, false
}

// RunResult pairs an experiment ID with its outcome; OK is false for
// unknown IDs.
type RunResult struct {
	ID     string
	Report Report
	OK     bool
}

// RunAll executes the given experiments (nil = every registered one, in
// paper order) on up to par.Workers goroutines and returns the results
// in input order. Experiments only read the Env, and each one is
// internally deterministic — every stochastic step reseeds from
// Params.Seed — so the reports are identical at any worker count.
func RunAll(env *Env, ids []string) []RunResult {
	if ids == nil {
		ids = IDs()
	}
	pt := obs.StartProgress("experiments", int64(len(ids)))
	out, _ := par.Map(ids, func(_ int, id string) (RunResult, error) {
		r, ok := Run(env, id)
		pt.Add(1)
		return RunResult{ID: id, Report: r, OK: ok}, nil
	})
	pt.Done()
	return out
}

// IDs returns all experiment IDs in order.
func IDs() []string {
	reg := Registry()
	out := make([]string, len(reg))
	for i, e := range reg {
		out[i] = e.ID
	}
	return out
}

// sortedNetworkNames returns the analysis networks in deterministic order.
func (e *Env) sortedNetworkNames() []string {
	names := make([]string, 0, len(e.Analysis))
	for n := range e.Analysis {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
