package mpa

import (
	"encoding/json"
	"testing"

	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/practices"
)

// TestIngestCarriedFacts replays the splice suite's organization month by
// month, its final month in two chunks, on a framework built in memory
// (whose ingests carry design facts from construction on) and on one
// rebuilt from a populated disk tier (which holds no facts, so its first
// ingest parses every device's entering snapshot). After every ingest,
// the ingested month's rows of both equal the full rebuild's byte for
// byte. The two replays parse the same snapshots at every ingest but the
// first, where the disk-tier one parses more. After the first chunk of
// the final month, when no rebuild has the same data, the two replicas'
// rows equal each other's.
func TestIngestCarriedFacts(t *testing.T) {
	o := osp.Generate(spliceParams())
	p := o.Params
	full, err := NewCached(o.Inventory, o.Archive, o.Tickets, p.Start, p.End, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := full.environment().Analysis

	cut := p.Start.Add(1)
	dir := t.TempDir()
	build := func(cc CacheConfig) *Framework {
		arch, log := ingest.Truncate(o.Archive, o.Tickets, cut)
		f, err := NewCached(o.Inventory, arch, log, p.Start, cut, cc)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	build(CacheConfig{Dir: dir}) // fills the disk tier
	replicas := []struct {
		name string
		f    *Framework
	}{
		{"memory", build(CacheConfig{})},
		{"disk-tier", build(CacheConfig{Dir: dir})},
	}
	if got, want := len(replicas[0].f.environment().Facts), len(o.Inventory.Networks); got != want {
		t.Fatalf("a framework built in memory holds design facts of %d networks, want %d", got, want)
	}
	if got := len(replicas[1].f.environment().Facts); got != 0 {
		t.Fatalf("a framework rebuilt from the disk tier holds design facts of %d networks, want 0", got)
	}

	var updates []*ingest.Update
	head := -1 // the final month's first chunk
	for m := cut.Next(); !p.End.Before(m); m = m.Next() {
		u := ingest.SliceMonth(o.Archive, o.Tickets, m)
		if m == p.End {
			half := len(u.Snapshots) / 2
			head = len(updates)
			updates = append(updates,
				&ingest.Update{Month: u.Month, Snapshots: u.Snapshots[:half]},
				&ingest.Update{Month: u.Month, Snapshots: u.Snapshots[half:], Tickets: u.Tickets})
			continue
		}
		updates = append(updates, u)
	}
	parsed := obs.GetCounter("inference.snapshots_parsed")
	// row encodes the network's row of month i (counted from the
	// window's start) in an analysis.
	row := func(analysis map[string][]practices.MonthAnalysis, name string, i int) string {
		b, err := json.Marshal(analysis[name][i])
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for k, u := range updates {
		var parses [2]int64
		for r, rep := range replicas {
			before := parsed.Value()
			if _, err := rep.f.Ingest(roundTrip(t, u)); err != nil {
				t.Fatalf("%s: ingest %d (%s): %v", rep.name, k, u.Month, err)
			}
			parses[r] = parsed.Value() - before
		}
		mem, disk := replicas[0].f.environment().Analysis, replicas[1].f.environment().Analysis
		i := len(replicas[0].f.Window()) - 1
		for _, nw := range o.Inventory.Networks {
			got := row(mem, nw.Name, i)
			if got != row(disk, nw.Name, i) {
				t.Errorf("ingest %d: %s %s differs between the replicas", k, nw.Name, u.Month)
			}
			if k != head && got != row(want, nw.Name, i) {
				t.Errorf("ingest %d: %s %s differs from the full rebuild's row", k, nw.Name, u.Month)
			}
		}
		if first := k == 0; first && parses[1] <= parses[0] || !first && parses[1] != parses[0] {
			t.Errorf("ingest %d parsed %d snapshots in memory and %d from the disk tier", k, parses[0], parses[1])
		}
	}
}
