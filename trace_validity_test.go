package mpa

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mpa/internal/obs"
)

// TestWriteTraceParallelValidity pins the -trace contract under a fully
// parallel run (workers=8 across generation, inference, and the
// experiment fan-out), on the path -trace takes: the process-wide
// collector keeps every stage tree as it ends, and the trees are written
// as one Chrome trace. The output is well-formed trace-event JSON, every
// event is a complete ("X") event with sane timestamps, the first event
// is the earliest stage at the origin, and sibling spans appear in
// monotone start-time order — the property Span.Start guarantees by
// timestamping under the parent's lock.
func TestWriteTraceParallelValidity(t *testing.T) {
	cfg := SmallConfig(17)
	cfg.Networks = 16
	SetWorkers(8)
	defer SetWorkers(0)
	obs.StartTrace()
	defer obs.StopTrace() // on a failure path; after the StopTrace below it is a no-op
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results := f.RunExperiments([]string{"table2", "table3", "figure2", "figure3"})
	roots := obs.StopTrace()
	for _, res := range results {
		if !res.OK {
			t.Fatalf("experiment %s failed", res.ID)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, roots...); err != nil {
		t.Fatal(err)
	}

	var tf struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Ts    int64          `json:"ts"`
			Dur   int64          `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not well-formed JSON: %v", err)
	}
	if len(tf.TraceEvents) < 3+16+16+4 { // stages + per-network generate + inference + experiments
		t.Fatalf("trace has %d events, want at least %d", len(tf.TraceEvents), 3+16+16+4)
	}
	if tf.TraceEvents[0].Name != "generate" || tf.TraceEvents[0].Ts != 0 {
		t.Errorf("first event = %q ts=%d, want the generate stage at the origin",
			tf.TraceEvents[0].Name, tf.TraceEvents[0].Ts)
	}
	for i, ev := range tf.TraceEvents {
		if ev.Phase != "X" {
			t.Errorf("event %d (%s): phase %q, want X", i, ev.Name, ev.Phase)
		}
		if ev.Ts < 0 || ev.Dur < 0 {
			t.Errorf("event %d (%s): negative ts/dur (%d, %d)", i, ev.Name, ev.Ts, ev.Dur)
		}
	}

	// The stages are written in start order, whatever order they ended in.
	origin := roots[0].StartTime().UnixMicro()
	for _, r := range roots {
		origin = min(origin, r.StartTime().UnixMicro())
	}
	stageTs := map[string]bool{}
	for _, r := range roots {
		stageTs[fmt.Sprint(r.Name(), r.StartTime().UnixMicro()-origin)] = true
	}
	if len(roots) != len(stageTs) {
		t.Fatalf("%d stages share a name and start", len(roots)-len(stageTs))
	}
	last := int64(-1)
	for _, ev := range tf.TraceEvents {
		if stageTs[fmt.Sprint(ev.Name, ev.Ts)] {
			if ev.Ts < last {
				t.Errorf("stage %s at ts %d written after a stage at ts %d", ev.Name, ev.Ts, last)
			}
			last = ev.Ts
		}
	}

	// Walk the span trees themselves: children sorted by start time even
	// though 8 workers opened them concurrently, and no child starts
	// before its parent.
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		children := s.Children()
		for i, c := range children {
			if c.StartTime().Before(s.StartTime()) {
				t.Errorf("span %s starts before its parent %s", c.Name(), s.Name())
			}
			if i > 0 && c.StartTime().Before(children[i-1].StartTime()) {
				t.Errorf("span %s: children %q and %q out of start order",
					s.Name(), children[i-1].Name(), c.Name())
			}
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
}
