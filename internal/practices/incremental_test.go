package practices

import (
	"reflect"
	"testing"
	"time"

	"mpa/internal/cache"
	"mpa/internal/months"
	"mpa/internal/nms"
	"mpa/internal/osp"
	"mpa/internal/par"
)

// TestIncrementalMonthEquivalence pins the contract the whole ingest
// path stands on: AnalyzeMonth(m, {name}) equals the month-m row of a
// full Analyze walk, byte for byte, for every network and month. It runs
// on a fresh engine and on one whose disk tier holds the full walk's
// entries; AnalyzeMonth never reads the tier, so the second pins that a
// configured tier changes nothing.
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
		"uncached": NewEngine(o.Inventory, o.Archive),
	}
	filled := NewEngine(o.Inventory, o.Archive)
	filled.SetCache(cache.Config{Dir: t.TempDir()})
	if _, err := filled.Analyze(window); err != nil {
		t.Fatalf("filling disk tier: %v", err)
	}
	engines["disk-tier-filled"] = filled

	for label, e := range engines {
		for _, nw := range o.Inventory.Networks {
			rows := analysis[nw.Name]
			if len(rows) != len(window) {
				t.Fatalf("%s: %d rows, want %d", nw.Name, len(rows), len(window))
			}
			for i, m := range window {
				got, err := e.AnalyzeMonth(m, []string{nw.Name})
				if err != nil {
					t.Fatalf("%s: AnalyzeMonth(%s, %s): %v", label, m, nw.Name, err)
				}
				if !reflect.DeepEqual(got[0], rows[i]) {
					t.Errorf("%s: %s %s: incremental row differs from full walk\n got: %+v\nwant: %+v",
						label, nw.Name, m, got[0], rows[i])
				}
			}
		}
	}

	if _, err := full.AnalyzeMonth(window[0], []string{"no-such-network"}); err == nil {
		t.Fatal("AnalyzeMonth of unknown network: want error")
	}
}

// TestAnalyzeWindowSuffix pins the entering-snapshot rule for windows
// longer than a month: Analyze(window[k:]) starts every device at its
// last snapshot before window[k] and must reproduce rows [k:] of the
// walk over the whole window.
func TestAnalyzeWindowSuffix(t *testing.T) {
	p := osp.Small(12)
	p.Networks = 6
	p.End = p.Start.Add(4)
	o := osp.Generate(p)
	window := p.Months()

	full, err := NewEngine(o.Inventory, o.Archive).Analyze(window)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(window); k++ {
		got, err := NewEngine(o.Inventory, o.Archive).Analyze(window[k:])
		if err != nil {
			t.Fatalf("Analyze(window[%d:]): %v", k, err)
		}
		for name, rows := range full {
			if !reflect.DeepEqual(got[name], rows[k:]) {
				t.Errorf("Analyze(window[%d:]) of %s differs from rows [%d:] of the full walk", k, name, k)
			}
		}
	}
}

// TestCorruptSnapshotInsideWalk pins which snapshots a window reads: a
// corrupt snapshot inside the window, or a corrupt entering snapshot,
// fails the walk, while one before the entering snapshot is never parsed.
func TestCorruptSnapshotInsideWalk(t *testing.T) {
	const good = "hostname netX-sw-01\n!\nvlan 100\n name seg-100\n!\nend\n"
	const bad = "hostname netX-sw-01\ngarbage that is not IOS\n"
	feb := months.Month{Year: 2014, Mon: time.February}
	mar, apr := feb.Next(), feb.Next().Next()
	at := func(m months.Month) time.Time { return m.Start().Add(time.Hour) }
	for _, tc := range []struct {
		name    string
		texts   map[months.Month]string
		window  []months.Month
		wantErr bool
	}{
		{"corrupt in window", map[months.Month]string{feb: good, mar: bad}, []months.Month{mar}, true},
		{"corrupt entering snapshot", map[months.Month]string{feb: bad, mar: good}, []months.Month{mar}, true},
		{"corrupt in later month", map[months.Month]string{feb: good, mar: good, apr: bad}, []months.Month{mar, apr}, true},
		{"corrupt before entering snapshot", map[months.Month]string{feb: bad, mar: good, apr: good}, []months.Month{apr}, false},
	} {
		arch := nms.NewArchive()
		for _, m := range []months.Month{feb, mar, apr} {
			if text, ok := tc.texts[m]; ok {
				if err := arch.Record(&nms.Snapshot{Device: "netX-sw-01", Time: at(m), Login: "op", Text: text}); err != nil {
					t.Fatal(err)
				}
			}
		}
		e := NewEngine(tinyInventory(), arch)
		_, err := e.Analyze(tc.window)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: Analyze error = %v, want error %v", tc.name, err, tc.wantErr)
		}
		if len(tc.window) == 1 {
			_, err := e.AnalyzeMonth(tc.window[0], []string{"netX"})
			if (err != nil) != tc.wantErr {
				t.Errorf("%s: AnalyzeMonth error = %v, want error %v", tc.name, err, tc.wantErr)
			}
		}
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
	defer par.SetWorkers(par.Workers())
	for _, w := range []int{1, 8} {
		par.SetWorkers(w)
		e := NewEngine(o.Inventory, o.Archive)
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
	before, err := e.AnalyzeMonth(m, []string{o.Inventory.Networks[0].Name})
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
	after, err := e.AnalyzeMonth(m, []string{o.Inventory.Networks[0].Name})
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate snapshot has identical text: no new change events,
	// identical metrics.
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("identical-text snapshot changed the analysis:\nbefore: %+v\nafter:  %+v", before, after)
	}
	// The original archive is untouched.
	if got := len(o.Archive.Snapshots(dev.Name)); got != len(hist) {
		t.Fatalf("original archive grew: %d snapshots, want %d", got, len(hist))
	}
}
