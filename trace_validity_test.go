package mpa

import (
	"bytes"
	"encoding/json"
	"testing"

	"mpa/internal/obs"
)

// TestWriteTraceParallelValidity pins the trace-export contract under a
// fully parallel run (workers=8 across generation, inference, and the
// experiment fan-out): the output is well-formed Chrome trace-event
// JSON, every event is a complete ("X") event with sane timestamps, and
// sibling spans appear in monotone start-time order — the property
// Span.Start guarantees by timestamping under the parent's lock.
func TestWriteTraceParallelValidity(t *testing.T) {
	cfg := SmallConfig(17)
	cfg.Networks = 16
	SetWorkers(8)
	defer SetWorkers(0)
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range f.RunExperiments([]string{"table2", "table3", "figure2", "figure3"}) {
		if !res.OK {
			t.Fatalf("experiment %s failed", res.ID)
		}
	}

	var buf bytes.Buffer
	if err := f.WriteTrace(&buf); err != nil {
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
	if len(tf.TraceEvents) < 1+16+16+4 { // root + per-network generate + inference + experiments
		t.Fatalf("trace has %d events, want at least %d", len(tf.TraceEvents), 1+16+16+4)
	}
	if tf.TraceEvents[0].Name != "pipeline" || tf.TraceEvents[0].Ts != 0 {
		t.Errorf("first event = %q ts=%d, want the pipeline root at the origin",
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

	// Walk the span tree itself: children sorted by start time even
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
	walk(f.environment().Obs)
}
