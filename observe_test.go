package mpa

import "testing"

// TestStageTableBoundedOverCycles pins the daemon's footprint: cycles of
// "ingest the next month, then rank, four causal runs, a two-class
// model, table8 and the manifest" leave the Env's lifetime root with no
// child span at all, while the stage table still counts every ingest
// and the one construction-time inference.
func TestStageTableBoundedOverCycles(t *testing.T) {
	const cycles = 5
	cfg := SmallConfig(3)
	cfg.Networks = 20
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ups, err := NextMonths(cfg, cycles)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(f.environment().Obs.Children()); n != 0 {
		t.Fatalf("root holds %d children after construction, want 0", n)
	}
	for i, u := range ups {
		if _, err := f.Ingest(u); err != nil {
			t.Fatalf("cycle %d: ingest: %v", i+1, err)
		}
		for _, d := range f.RankPractices()[:4] {
			if _, err := f.AnalyzeCausal(d.Metric); err != nil {
				t.Fatalf("cycle %d: causal %s: %v", i+1, d.Metric, err)
			}
		}
		if _, err := f.TrainHealthModel(TwoClass); err != nil {
			t.Fatalf("cycle %d: model: %v", i+1, err)
		}
		if _, ok := f.Experiment("table8"); !ok {
			t.Fatal("table8 unknown")
		}
		f.Manifest()

		if n := len(f.environment().Obs.Children()); n != 0 {
			t.Errorf("cycle %d: root holds %d children, want 0", i+1, n)
		}
		if got := f.StageCalls("ingest"); got != i+1 {
			t.Errorf("cycle %d: StageCalls(ingest) = %d, want %d", i+1, got, i+1)
		}
		if got := f.StageCalls("inference"); got != 1 {
			t.Errorf("cycle %d: StageCalls(inference) = %d, want 1", i+1, got)
		}
	}
}
