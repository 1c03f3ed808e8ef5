package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestStageTableFoldsAndKeepsNoChildren pins the stage table: a stage
// counts when it starts, folds its time and counters in when it ends,
// rows keep first-start order, and the table never holds a child.
func TestStageTableFoldsAndKeepsNoChildren(t *testing.T) {
	table := NewStageTable("pipeline")
	gen := table.Start("generate")
	gen.Count("networks", 3)
	gen.Start("net-0").End()
	inf := table.Start("inference")
	if rows := table.Stages(); len(rows) != 2 || rows[0].Calls != 1 || rows[0].Duration != 0 {
		t.Fatalf("open stages = %+v, want two rows counted, nothing folded", rows)
	}
	gen.End()
	inf.End()
	again := table.Start("generate")
	again.Count("networks", 2)
	again.End()
	again.End() // a second End folds nothing

	rows := table.Stages()
	if len(rows) != 2 || rows[0].Name != "generate" || rows[1].Name != "inference" {
		t.Fatalf("rows = %+v, want generate then inference", rows)
	}
	if g := rows[0]; g.Calls != 2 || g.Counters["networks"] != 5 || g.Duration != gen.Duration()+again.Duration() {
		t.Errorf("generate row = %+v, want 2 calls, networks=5, summed duration", g)
	}
	if rows[1].Counters != nil {
		t.Errorf("inference counters = %v, want none", rows[1].Counters)
	}
	if len(table.Children()) != 0 {
		t.Errorf("stage table holds %d children, want 0", len(table.Children()))
	}
	if len(gen.Children()) != 1 {
		t.Errorf("stage keeps %d children, want its full tree (1)", len(gen.Children()))
	}
	rows[0].Counters["networks"] = 99
	if table.Stages()[0].Counters["networks"] != 5 {
		t.Error("Stages handed out the table's own counter map")
	}
}

// TestStageTableHandsOffFinishedStages: an ended stage reaches the
// default recorder under a stage-<seq>-<name> ID and, while a trace is
// collected, the trace; a stage that never ends reaches neither.
func TestStageTableHandsOffFinishedStages(t *testing.T) {
	StartTrace()
	table := NewStageTable("pipeline")
	st := table.Start("handoff_test_stage")
	st.Start("step").End()
	st.End()
	table.Start("handoff_test_open")
	roots := StopTrace()
	if len(roots) != 1 || roots[0] != st {
		t.Fatalf("trace kept %v, want the one ended stage", roots)
	}
	if StopTrace() != nil {
		t.Error("second StopTrace returned spans")
	}
	var found, open bool
	for _, s := range DefaultRecorder().Summaries() {
		switch s.Name {
		case "handoff_test_stage":
			found = strings.HasPrefix(s.ID, "stage-") && strings.HasSuffix(s.ID, "-handoff_test_stage") &&
				len(s.Stages) == 1 && s.Stages[0].Name == "step"
		case "handoff_test_open":
			open = true
		}
	}
	if !found || open {
		t.Errorf("recorder: ended stage found=%v (with its step breakdown), open stage recorded=%v", found, open)
	}
	table.Start("after_trace").End()
	if StopTrace() != nil {
		t.Error("a stage was collected with no trace installed")
	}
}

// TestStageTableConcurrent starts and ends stages from many goroutines
// while others read the table; run with -race.
func TestStageTableConcurrent(t *testing.T) {
	table := NewStageTable("pipeline")
	const workers, perWorker = 8, 50
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = table.Stages()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s := table.Start("stage")
				s.Count("n", 1)
				s.End()
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	rows := table.Stages()
	if len(rows) != 1 || rows[0].Calls != workers*perWorker || rows[0].Counters["n"] != workers*perWorker {
		t.Errorf("rows = %+v, want one row of %d calls", rows, workers*perWorker)
	}
}

// TestWriteChromeTraceOrdersRoots: several trees are written in start
// order whatever order they are passed in, the earliest at ts 0.
func TestWriteChromeTraceOrdersRoots(t *testing.T) {
	late := fixedSpan("late", 1_000_500, 10, 0, nil, fixedSpan("late-child", 1_000_501, 5, 0, nil))
	early := fixedSpan("early", 1_000_000, 900, 0, nil)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, late, nil, early); err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ev := range tf.TraceEvents {
		got = append(got, ev.Name)
	}
	if strings.Join(got, ",") != "early,late,late-child" || tf.TraceEvents[0].Ts != 0 || tf.TraceEvents[1].Ts != 500 {
		t.Errorf("events = %v (ts %d, %d), want early at 0, then late at 500 with its child",
			got, tf.TraceEvents[0].Ts, tf.TraceEvents[1].Ts)
	}
}
