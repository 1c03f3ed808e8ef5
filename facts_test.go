package mpa

import (
	"encoding/json"
	"reflect"
	"testing"

	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/practices"
)

// TestIngestCarriedFacts replays the splice suite's organization month by
// month, its final month in two chunks, on a framework built in memory
// and on one rebuilt from a populated disk tier. Both hold every
// network's design facts from construction on, the disk tier's read back
// from its entries, and the two are equal, as are their rows. After
// every ingest, the ingested month's rows of both equal the full
// rebuild's byte for byte, and the two replays parse the same snapshots,
// the first ingest included. After the first chunk of the final month,
// when no rebuild has the same data, the two replicas' rows equal each
// other's.
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
	for _, rep := range replicas {
		if got, want := len(rep.f.environment().Facts), len(o.Inventory.Networks); got != want {
			t.Fatalf("%s: the framework holds design facts of %d networks, want %d", rep.name, got, want)
		}
	}
	memEnv, diskEnv := replicas[0].f.environment(), replicas[1].f.environment()
	if !reflect.DeepEqual(memEnv.Facts, diskEnv.Facts) {
		t.Fatal("the disk-tier replica's design facts differ from the memory replica's")
	}
	memRows, err := json.Marshal(memEnv.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	diskRows, err := json.Marshal(diskEnv.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	if string(memRows) != string(diskRows) {
		t.Fatal("the disk-tier replica's rows differ from the memory replica's")
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
		if parses[1] != parses[0] {
			t.Errorf("ingest %d parsed %d snapshots in memory and %d from the disk tier", k, parses[0], parses[1])
		}
	}
}
