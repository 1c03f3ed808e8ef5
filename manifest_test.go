package mpa

import (
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"mpa/internal/runinfo"
)

// smallManifestFramework builds a tiny framework and runs a few
// experiments so the manifest has stage rollups and report digests.
func smallManifestFramework(t *testing.T, seed uint64) *Framework {
	t.Helper()
	cfg := SmallConfig(seed)
	cfg.Networks = 12
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"table2", "table3", "figure2"} {
		if _, ok := f.Experiment(id); !ok {
			t.Fatalf("experiment %s unknown", id)
		}
	}
	return f
}

func TestManifestContents(t *testing.T) {
	f := smallManifestFramework(t, 5)
	m := f.Manifest()
	if err := m.Validate(); err != nil {
		t.Fatalf("manifest invalid: %v", err)
	}
	if m.Config.Seed != 5 || m.Config.Networks != 12 {
		t.Errorf("config not recorded: %+v", m.Config)
	}
	if m.Config.Workers != runtime.NumCPU() {
		t.Errorf("config.workers = %d, want the default %d", m.Config.Workers, runtime.NumCPU())
	}
	if m.TotalWallNS <= 0 {
		t.Errorf("total_wall_ns = %d, want > 0", m.TotalWallNS)
	}

	// The pipeline stages (generate, inference, dataset.build) and every
	// experiment run must appear as rollups with real durations.
	stages := map[string]runinfo.Stage{}
	for _, st := range m.Stages {
		stages[st.Name] = st
	}
	for _, want := range []string{
		"generate", "inference", "dataset.build",
		"experiment:table2", "experiment:table3", "experiment:figure2",
	} {
		st, ok := stages[want]
		if !ok {
			t.Errorf("stage %q missing from manifest", want)
			continue
		}
		if st.Calls < 1 || st.WallNS <= 0 {
			t.Errorf("stage %q rollup empty: %+v", want, st)
		}
	}
	if st := stages["generate"]; st.Counters["networks"] != 12 {
		t.Errorf("generate counters not rolled up: %+v", st.Counters)
	}

	// The manifest describes this framework only: the process-wide
	// registry, runtime and recorder go to the written -manifest file
	// (cmd/mpa's TestManifest pins them there).
	if m.Metrics != nil || m.Runtime != nil || m.Recorder != nil {
		t.Errorf("manifest carries process sections: metrics %v, runtime %v, recorder %v",
			m.Metrics != nil, m.Runtime != nil, m.Recorder != nil)
	}

	if len(m.Reports) != 3 {
		t.Errorf("report digests = %d, want 3: %v", len(m.Reports), m.Reports)
	}
}

// TestManifestReadsOneSnapshot pins that a manifest's config comes from
// the snapshot its report digests come from: the generated network count
// (not the zero the config asked for), and a window and digests that
// advance together while months are ingested under concurrent reads.
func TestManifestReadsOneSnapshot(t *testing.T) {
	cfg := Config{Seed: 1, Start: Month{Year: 2014, Mon: time.January}, End: Month{Year: 2014, Mon: time.February}}
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := f.Manifest()
	if m.Config.Seed != 1 || m.Config.Networks != 60 || m.Config.WindowStart != "2014-01" || m.Config.WindowEnd != "2014-02" {
		t.Fatalf("manifest config = %+v, want seed 1, 60 networks, 2014-01..2014-02", m.Config)
	}

	const extra = 2
	ups, err := NextMonths(cfg, extra)
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the window end after k ingests; digestAt maps each
	// table2 digest to the first snapshot that produced it.
	ends := []string{"2014-02"}
	digestAt := map[string]int{}
	digest := func() {
		r, _ := f.Experiment("table2")
		if _, ok := digestAt[r.Digest()]; !ok {
			digestAt[r.Digest()] = len(ends) - 1
		}
	}
	digest()

	type seen struct{ end, digest string }
	done := make(chan struct{})
	var wg sync.WaitGroup
	reads := make([][]seen, 4)
	for i := range reads {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				m := f.Manifest()
				reads[i] = append(reads[i], seen{m.Config.WindowEnd, m.Reports["table2"]})
				if m.Config.Networks != 60 || m.Config.Seed != 1 {
					t.Errorf("manifest config = %+v mid-ingest", m.Config)
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(i)
	}
	for _, u := range ups {
		res, err := f.Ingest(u)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, res.WindowEnd)
		digest()
	}
	close(done)
	wg.Wait()

	at := map[string]int{}
	for k, e := range ends {
		at[e] = k
	}
	for _, rs := range reads {
		last := 0
		for _, r := range rs {
			k, ok := at[r.end]
			if !ok {
				t.Fatalf("manifest window end %q is none of %v", r.end, ends)
			}
			if k < last {
				t.Errorf("window end went back from %s to %s", ends[last], r.end)
			}
			last = k
			// A snapshot carries the digests of itself and its
			// predecessors, never of a later snapshot.
			d, ok := digestAt[r.digest]
			if !ok {
				t.Fatalf("window end %s paired with an unknown table2 digest %q", r.end, r.digest)
			}
			if d > k {
				t.Errorf("window end %s paired with the table2 digest of window end %s", r.end, ends[d])
			}
		}
	}
	if got := f.Manifest().Config.WindowEnd; got != ends[extra] {
		t.Errorf("final window end %s, want %s", got, ends[extra])
	}
}

// TestManifestDigestsStable: two identical runs must produce
// byte-identical report digests (the manifest's diffability guarantee).
func TestManifestDigestsStable(t *testing.T) {
	a := smallManifestFramework(t, 5).Manifest()
	b := smallManifestFramework(t, 5).Manifest()
	if len(a.Reports) == 0 {
		t.Fatal("no report digests recorded")
	}
	for id, da := range a.Reports {
		if db := b.Reports[id]; da != db {
			t.Errorf("digest of %s differs across identical runs:\n  %s\n  %s", id, da, db)
		}
	}

	c := smallManifestFramework(t, 6).Manifest()
	same := 0
	for id, da := range a.Reports {
		if c.Reports[id] == da {
			same++
		}
	}
	if same == len(a.Reports) {
		t.Error("digests identical across different seeds — digest is not content-sensitive")
	}
}

func TestWriteManifest(t *testing.T) {
	// config.workers records the width the pools ran at.
	SetWorkers(3)
	defer SetWorkers(0)
	f := smallManifestFramework(t, 7)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := f.Manifest().AddProcess().Write(path); err != nil {
		t.Fatal(err)
	}
	m, err := runinfo.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stages) < 4 {
		t.Errorf("written manifest has %d stages, want >= 4", len(m.Stages))
	}
	if m.Config.Workers != 3 {
		t.Errorf("written config.workers = %d after SetWorkers(3), want 3", m.Config.Workers)
	}
	if m.Build.GoVersion == "" {
		t.Error("build info missing from written manifest")
	}
}
