package mpa

// Failure-path metrics for streaming ingest: an update that passes
// validation but fails during apply (here: a snapshot whose config text
// the dialect parser rejects, surfacing through incremental inference)
// must count in ingest.rejected and observe ingest.apply_ns like any
// other finished apply — the regression was that only compile/window
// rejects were counted, silently undercounting failed applies.

import (
	"strings"
	"testing"

	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/osp"
)

func TestIngestApplyFailureCounted(t *testing.T) {
	p := spliceParams()
	p.Networks = 4
	o := osp.Generate(p)
	f, err := NewCached(o.Inventory, o.Archive, o.Tickets, p.Start, p.End, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	envBefore := f.environment()

	rejected := obs.GetCounter("ingest.rejected")
	rejectedBefore := rejected.Value()
	applyBefore := obs.GetLogHistogram("ingest.apply_ns").Snapshot().Count

	// Compile checks months, device identity, and monotonicity — not the
	// config text itself. Unparseable text therefore survives validation
	// and fails inside incremental inference, the apply path under test.
	dev := o.Inventory.Networks[0].Devices[0].Name
	next := p.End.Next()
	u := &IngestUpdate{
		Month: next.String(),
		Snapshots: []ingest.SnapshotEntry{
			{Device: dev, Time: next.Start(), Login: "ops", Text: "%% not a config\n"},
		},
	}
	_, err = f.Ingest(u)
	if err == nil {
		t.Fatal("unparseable snapshot applied cleanly, want an inference failure")
	}
	if !strings.Contains(err.Error(), "incremental inference failed") {
		t.Fatalf("err = %v, want the incremental-inference failure path", err)
	}

	if d := rejected.Value() - rejectedBefore; d != 1 {
		t.Errorf("ingest.rejected grew by %d, want 1", d)
	}
	if d := obs.GetLogHistogram("ingest.apply_ns").Snapshot().Count - applyBefore; d != 1 {
		t.Errorf("ingest.apply_ns observed %d new applies, want 1 (failed applies must not vanish from the latency series)", d)
	}
	if f.environment() != envBefore {
		t.Error("failed apply swapped the environment")
	}

	// A plain validation reject still counts without an apply_ns sample:
	// no apply work ran.
	rejectedBefore = rejected.Value()
	applyBefore = obs.GetLogHistogram("ingest.apply_ns").Snapshot().Count
	if _, err := f.Ingest(&IngestUpdate{Month: next.String()}); err == nil {
		t.Fatal("empty update accepted")
	}
	if d := rejected.Value() - rejectedBefore; d != 1 {
		t.Errorf("validation reject: ingest.rejected grew by %d, want 1", d)
	}
	if d := obs.GetLogHistogram("ingest.apply_ns").Snapshot().Count - applyBefore; d != 0 {
		t.Errorf("validation reject observed %d apply_ns samples, want 0", d)
	}
}
