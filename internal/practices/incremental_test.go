package practices

import (
	"reflect"
	"testing"

	"mpa/internal/cache"
	"mpa/internal/osp"
)

// TestIncrementalMonthEquivalence pins the contract the whole ingest
// path stands on: AnalyzeNetworkMonth(name, m) equals the month-m row of
// a full Analyze walk, byte for byte, for every network and month —
// with caching off (fresh engine) and on (engine warm from the full
// walk).
func TestIncrementalMonthEquivalence(t *testing.T) {
	p := osp.Small(9)
	p.Networks = 10
	p.End = p.Start.Add(3)
	o := osp.Generate(p)
	window := p.Months()

	full := NewEngine(o.Inventory, o.Archive)
	analysis, err := full.Analyze(window)
	if err != nil {
		t.Fatalf("full analyze: %v", err)
	}

	engines := map[string]*Engine{
		"cold-uncached": NewEngine(o.Inventory, o.Archive),
	}
	warm := NewEngine(o.Inventory, o.Archive)
	warm.SetCache(cache.Config{Dir: t.TempDir()})
	if _, err := warm.Analyze(window); err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	engines["warm-cached"] = warm

	for label, e := range engines {
		for _, nw := range o.Inventory.Networks {
			rows := analysis[nw.Name]
			if len(rows) != len(window) {
				t.Fatalf("%s: %d rows, want %d", nw.Name, len(rows), len(window))
			}
			for i, m := range window {
				got, err := e.AnalyzeNetworkMonth(nw.Name, m)
				if err != nil {
					t.Fatalf("%s: AnalyzeNetworkMonth(%s, %s): %v", label, nw.Name, m, err)
				}
				if !reflect.DeepEqual(got, rows[i]) {
					t.Errorf("%s: %s %s: incremental row differs from full walk\n got: %+v\nwant: %+v",
						label, nw.Name, m, got, rows[i])
				}
			}
		}
	}

	if _, err := full.AnalyzeNetworkMonth("no-such-network", window[0]); err == nil {
		t.Fatal("AnalyzeNetworkMonth of unknown network: want error")
	}
}

// TestAnalyzeMonthOrderAndWorkers pins that AnalyzeMonth returns rows in
// input order and is worker-count invariant.
func TestAnalyzeMonthOrderAndWorkers(t *testing.T) {
	p := osp.Small(10)
	p.Networks = 8
	p.End = p.Start.Add(2)
	o := osp.Generate(p)
	m := p.End

	names := make([]string, 0, len(o.Inventory.Networks))
	for i := len(o.Inventory.Networks) - 1; i >= 0; i-- { // deliberately reversed
		names = append(names, o.Inventory.Networks[i].Name)
	}

	var ref []MonthAnalysis
	for _, w := range []int{1, 8} {
		e := NewEngine(o.Inventory, o.Archive)
		e.SetWorkers(w)
		rows, err := e.AnalyzeMonth(m, names)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, name := range names {
			if rows[i].Network != name {
				t.Fatalf("workers=%d: row %d is %s, want input order %s", w, i, rows[i].Network, name)
			}
		}
		if ref == nil {
			ref = rows
		} else if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("workers=%d: rows differ from workers=1", w)
		}
	}
}

// TestSetArchiveRebind pins that a rebound engine analyzes the new
// archive while the original archive stays untouched.
func TestSetArchiveRebind(t *testing.T) {
	p := osp.Small(11)
	p.Networks = 4
	p.End = p.Start.Add(1)
	o := osp.Generate(p)
	m := p.End

	e := NewEngine(o.Inventory, o.Archive)
	e.SetCache(cache.Config{Dir: t.TempDir()})
	before, err := e.AnalyzeNetworkMonth(o.Inventory.Networks[0].Name, m)
	if err != nil {
		t.Fatal(err)
	}

	// Clone and append a copy of a device's last snapshot one hour later
	// with a fresh manual login: one more change-window snapshot but no
	// config diff, so metrics must stay identical except via recompute.
	clone := o.Archive.Clone()
	dev := o.Inventory.Networks[0].Devices[0]
	hist := o.Archive.Snapshots(dev.Name)
	last := hist[len(hist)-1]
	dup := *last
	dup.Time = m.End().Add(-1) // still inside month m
	if dup.Time.Before(last.Time) {
		t.Skip("device history already ends at month boundary")
	}
	if err := clone.Record(&dup); err != nil {
		t.Fatal(err)
	}
	e.SetArchive(clone)
	after, err := e.AnalyzeNetworkMonth(o.Inventory.Networks[0].Name, m)
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate snapshot has an identical fingerprint and text: no
	// new change events, identical metrics.
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("identical-text snapshot changed the analysis:\nbefore: %+v\nafter:  %+v", before, after)
	}
	// The original archive is untouched.
	if got := len(o.Archive.Snapshots(dev.Name)); got != len(hist) {
		t.Fatalf("original archive grew: %d snapshots, want %d", got, len(hist))
	}
}
