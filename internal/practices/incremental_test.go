package practices

import (
	"reflect"
	"testing"
	"time"

	"mpa/internal/cache"
	"mpa/internal/confmodel"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/obs"
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

// TestCarriedFactsEquivalence pins the month step's carried design
// facts. For every month of a small organization, AnalyzeMonth on an
// engine handed the Facts of the walk up to the month before equals, byte
// for byte, the same month on an engine handed none and the month's row
// of a full Analyze, and so does one handed the facts of the whole
// window's end, which match only the devices that did not change since
// the month. Each walk parses exactly the snapshots monthParses
// counts, so the carried walk skips every device with no snapshot in the
// month. Two months are added after the generated window: in the first,
// one device's config returns to its first text (a new record with old
// text); in the second nothing changes, so that device's carried facts
// are the returned text's.
func TestCarriedFactsEquivalence(t *testing.T) {
	p := osp.Small(9)
	p.Networks = 10
	p.End = p.Start.Add(3)
	o := osp.Generate(p)
	arch := o.Archive.Clone()
	dev := o.Inventory.Networks[0].Devices[0]
	first := arch.Snapshots(dev.Name)[0]
	back := p.End.Next()
	if err := arch.Record(&nms.Snapshot{Device: dev.Name, Time: back.Start().Add(time.Hour), Login: first.Login, Text: first.Text}); err != nil {
		t.Fatal(err)
	}
	window := months.Range(p.Start, back.Next())
	names := make([]string, 0, len(o.Inventory.Networks))
	for _, nw := range o.Inventory.Networks {
		names = append(names, nw.Name)
	}
	fullEngine := NewEngine(o.Inventory, arch)
	full, err := fullEngine.Analyze(window)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(ma MonthAnalysis) string {
		b, err := monthAnalysisCodec.Encode([]MonthAnalysis{ma})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	parsed := obs.GetCounter("inference.snapshots_parsed")
	walk := func(e *Engine, m months.Month, carried bool) []MonthAnalysis {
		t.Helper()
		before := parsed.Value()
		rows, err := e.AnalyzeMonth(m, names)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := parsed.Value()-before, monthParses(o.Inventory, arch, m, names, carried); got != int64(want) {
			t.Errorf("%s (carried %v): parsed %d snapshots, want %d", m, carried, got, want)
		}
		return rows
	}

	carriedParses, plainParses := 0, 0
	for _, m := range window[1:] {
		carriedParses += monthParses(o.Inventory, arch, m, names, true)
		plainParses += monthParses(o.Inventory, arch, m, names, false)
	}
	if carriedParses >= plainParses {
		t.Fatalf("fixture: carried walks parse %d snapshots, plain ones %d; want fewer", carriedParses, plainParses)
	}

	prev := NewEngine(o.Inventory, arch)
	if _, err := prev.Analyze(window[:1]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(window); i++ {
		m := window[i]
		carried := NewEngine(o.Inventory, arch)
		carried.SetFacts(prev.Facts())
		got := walk(carried, m, true)
		plain := walk(NewEngine(o.Inventory, arch), m, false)
		// Facts of a later window's end match no entering snapshot of a
		// device that changed since, and must not be reused for it.
		stale := NewEngine(o.Inventory, arch)
		stale.SetFacts(fullEngine.Facts())
		late, err := stale.AnalyzeMonth(m, names)
		if err != nil {
			t.Fatal(err)
		}
		for j, name := range names {
			want := encode(full[name][i])
			if encode(got[j]) != want {
				t.Errorf("%s %s: row with carried facts differs from the full walk's", name, m)
			}
			if encode(plain[j]) != want {
				t.Errorf("%s %s: row without carried facts differs from the full walk's", name, m)
			}
			if encode(late[j]) != want {
				t.Errorf("%s %s: row with the window end's facts differs from the full walk's", name, m)
			}
		}
		prev = carried
	}
}

// monthParses returns the snapshots a walk of month m over the named
// networks parses: the month's own snapshots, and the snapshot entering
// the month of each device that has one in the month, or of every device
// when the walk carries no facts.
func monthParses(inv *netmodel.Inventory, arch *nms.Archive, m months.Month, names []string, carried bool) int {
	n := 0
	for _, name := range names {
		for _, dev := range inv.Network(name).Devices {
			entering, in := 0, 0
			for _, s := range arch.Snapshots(dev.Name) {
				switch {
				case s.Time.Before(m.Start()):
					entering = 1
				case s.Time.Before(m.End()):
					in++
				}
			}
			if in > 0 || !carried {
				n += entering
			}
			n += in
		}
	}
	return n
}

// TestFactsHoldNoConfig pins what an environment snapshot keeps across
// ingests: no type reachable from Facts is a parsed config or stanza, so
// carried facts cost about a megabyte per organization, not the tens of
// megabytes its month-end configs would.
func TestFactsHoldNoConfig(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(confmodel.Config{}): true,
		reflect.TypeOf(confmodel.Stanza{}): true,
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type, string)
	walk = func(ty reflect.Type, path string) {
		if banned[ty] {
			t.Errorf("Facts reach %s through %s", ty, path)
		}
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Map:
			walk(ty.Key(), path+"{key}")
			walk(ty.Elem(), path+"{}")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(Facts{}), "Facts")
	if !seen[reflect.TypeOf(deviceFacts{})] {
		t.Fatal("the walk did not reach deviceFacts")
	}
}
