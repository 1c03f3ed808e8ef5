package practices

import (
	"testing"

	"mpa/internal/cache"
	"mpa/internal/months"
	"mpa/internal/obs"
	"mpa/internal/osp"
)

// TestAllocBudgetInferNetwork pins the end-to-end allocation cost of
// inferring one network-month-window, normalized per archived snapshot —
// parse, diff, grouping, and metrics together. This is the stage budget
// behind BenchmarkInference: per-stage parse/diff budgets live next to
// their packages, and this cap catches regressions in the engine plumbing
// between them (cursor handling, change assembly, metric evaluation).
// CI runs `go test -run AllocBudget ./...`; exceeding the budget fails.
func TestAllocBudgetInferNetwork(t *testing.T) {
	p := osp.Small(5)
	p.Networks = 3
	o := osp.Generate(p)
	engine := NewEngine(o.Inventory, o.Archive)
	window := o.Params.Months()
	nw := o.Inventory.Networks[0]
	snaps := 0
	for _, dev := range nw.Devices {
		snaps += len(o.Archive.Snapshots(dev.Name))
	}
	if snaps == 0 {
		t.Fatal("fixture network has no snapshots")
	}
	analyze := func() {
		if _, err := engine.analyzeNetwork(nw.Name, window, nil, newNetScratch(), nil); err != nil {
			t.Fatal(err)
		}
	}
	analyze()
	avg := testing.AllocsPerRun(8, analyze)
	perSnap := avg / float64(snaps)
	t.Logf("inference: %.0f allocs/network (%d snapshots, %.1f allocs/snapshot)", avg, snaps, perSnap)
	// Budget: only the window of a snapshot's text that changed is
	// parsed (~3.1 allocs per stanza) and every other block shares the
	// device's previous snapshot's stanza, plus the config, its stanza
	// and block slices and engine bookkeeping; this reads ~33. Sharing
	// only unchanged blocks read ~46, parsing every stanza of every
	// snapshot ~120, and pre-optimization this path sat near 900.
	const budget = 50.0
	if perSnap > budget {
		t.Errorf("inference allocations %.1f/snapshot exceed budget %.0f", perSnap, budget)
	}
}

// TestAllocBudgetAnalyzeMonth is the same budget for the single-month
// path behind Framework.Ingest: one month of every network, normalized
// per snapshot the walk parses (each device's month-entering baseline
// plus the month's own snapshots). Each run builds a fresh engine with a
// disk cache tier configured; the single-month path never reads it, so
// nothing a previous run left behind can hide the cost of a month the
// engine has not seen.
func TestAllocBudgetAnalyzeMonth(t *testing.T) {
	p := osp.Small(5)
	p.Networks = 3
	o := osp.Generate(p)
	m := o.Params.End
	names := make([]string, 0, len(o.Inventory.Networks))
	for _, nw := range o.Inventory.Networks {
		names = append(names, nw.Name)
	}
	dir := t.TempDir()
	analyze := func() {
		engine := NewEngine(o.Inventory, o.Archive)
		engine.SetCache(cache.Config{Dir: dir})
		if _, err := engine.AnalyzeMonth(m, names); err != nil {
			t.Fatal(err)
		}
	}
	parsed := obs.GetCounter("inference.snapshots_parsed")
	before := parsed.Value()
	analyze()
	snaps := parsed.Value() - before
	if snaps == 0 {
		t.Fatal("fixture month parses no snapshots")
	}
	avg := testing.AllocsPerRun(8, analyze)
	perSnap := avg / float64(snaps)
	t.Logf("month inference: %.0f allocs/month (%d snapshots, %.1f allocs/snapshot)", avg, snaps, perSnap)
	// Budget: each device's month-entering baseline is a full parse and
	// the month's own snapshots share their unchanged blocks with it;
	// this reads ~105 (~164 when every snapshot was parsed in full).
	const budget = 135.0
	if perSnap > budget {
		t.Errorf("month inference allocations %.1f/snapshot exceed budget %.0f", perSnap, budget)
	}
}

// TestAllocBudgetAnalyzeMonthCarried is TestAllocBudgetAnalyzeMonth on
// the path Framework.Ingest takes from a warm framework: each run's
// engine is handed the Facts of a walk up to the month before, so only
// devices with snapshots in the month parse. Normalized per snapshot the
// walk parses, the carried devices' bookkeeping is part of the cost.
func TestAllocBudgetAnalyzeMonthCarried(t *testing.T) {
	p := osp.Small(5)
	p.Networks = 3
	o := osp.Generate(p)
	m := o.Params.End
	names := make([]string, 0, len(o.Inventory.Networks))
	for _, nw := range o.Inventory.Networks {
		names = append(names, nw.Name)
	}
	prev := NewEngine(o.Inventory, o.Archive)
	if _, err := prev.Analyze(months.Range(o.Params.Start, m.Add(-1))); err != nil {
		t.Fatal(err)
	}
	facts := prev.Facts()
	dir := t.TempDir()
	analyze := func() {
		engine := NewEngine(o.Inventory, o.Archive)
		engine.SetCache(cache.Config{Dir: dir})
		engine.SetFacts(facts)
		if _, err := engine.AnalyzeMonth(m, names); err != nil {
			t.Fatal(err)
		}
	}
	parsed := obs.GetCounter("inference.snapshots_parsed")
	before := parsed.Value()
	analyze()
	snaps := parsed.Value() - before
	if snaps == 0 {
		t.Fatal("fixture month parses no snapshots")
	}
	avg := testing.AllocsPerRun(8, analyze)
	perSnap := avg / float64(snaps)
	t.Logf("carried month inference: %.0f allocs/month (%d snapshots, %.1f allocs/snapshot)", avg, snaps, perSnap)
	// Budget: the walk parses 48 of the 93 snapshots the uncarried one
	// does, and allocates ~2,500 times against its ~9,600; this reads ~52
	// per parsed snapshot, below the uncarried ~105 because the skipped
	// snapshots are all full-parse baselines.
	const budget = 65.0
	if perSnap > budget {
		t.Errorf("carried month inference allocations %.1f/snapshot exceed budget %.0f", perSnap, budget)
	}
}

// TestAllocBudgetInferenceWarmCache is the budget behind
// BenchmarkInferenceWarmCache: the path a restart takes, where a fresh
// engine over a filled disk tier reads every network's walk back, rows
// and window-end facts, instead of walking it. Normalized per row
// (network-month) read back: keys hash each snapshot's text in place,
// so what allocates is the decoded entry, a metrics map and the changes
// per row and the facts of each device.
func TestAllocBudgetInferenceWarmCache(t *testing.T) {
	p := osp.Small(5)
	p.Networks = 3
	o := osp.Generate(p)
	window := o.Params.Months()
	rows := len(window) * len(o.Inventory.Networks)
	cc := cache.Config{Dir: t.TempDir()}
	analyze := func() {
		engine := NewEngine(o.Inventory, o.Archive)
		engine.SetCache(cc)
		if _, err := engine.Analyze(window); err != nil {
			t.Fatal(err)
		}
	}
	analyze() // fills the disk tier
	hits := obs.GetCounter("cache.practices.disk_hits")
	before := hits.Value()
	avg := testing.AllocsPerRun(8, analyze) // 1 warm-up run + 8
	if got, want := hits.Value()-before, int64(9*len(o.Inventory.Networks)); got != want {
		t.Fatalf("%d disk hits, want %d: not every network was read back", got, want)
	}
	perRow := avg / float64(rows)
	t.Logf("warm-cache inference: %.0f allocs/run (%d rows, %.1f allocs/row)", avg, rows, perRow)
	// Budget: this reads ~44, facts included. With keys hashed from a
	// copy of each text and JSON rows without facts it read ~227.
	const budget = 60.0
	if perRow > budget {
		t.Errorf("warm-cache inference allocations %.1f/row exceed budget %.0f", perRow, budget)
	}
}
