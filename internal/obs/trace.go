package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
)

// tracing keeps, as children, the stage trees that end while on (nil = off).
var tracing atomic.Pointer[Span]

// StartTrace starts keeping every stage that ends on a stage table, for
// the trace (the -trace flag), dropping any trace already started.
func StartTrace() { tracing.Store(NewRoot("trace")) }

// StopTrace ends the trace and returns its stage trees in end order.
func StopTrace() []*Span { return tracing.Swap(nil).Children() }

// traceEvent is one Chrome trace-event ("X" = complete event). Times are
// microseconds relative to the trace origin, per the trace-event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    int64          `json:"ts"`
	Dur   int64          `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object form of a trace, which both
// chrome://tracing and Perfetto load.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace exports the span trees as Chrome trace-event JSON,
// the trees in start order and the earliest start at ts 0. Every span
// becomes a complete ("X") event; nesting is conveyed by time
// containment, which the viewers render as stacked slices. Span counters
// and the allocation delta appear in the event's args (visible when a
// slice is selected).
func WriteChromeTrace(w io.Writer, roots ...*Span) error {
	roots = slices.DeleteFunc(slices.Clone(roots), func(r *Span) bool { return r == nil })
	if len(roots) == 0 {
		return fmt.Errorf("obs: no spans to trace")
	}
	slices.SortStableFunc(roots, func(a, b *Span) int { return a.StartTime().Compare(b.StartTime()) })
	origin := roots[0].StartTime().UnixMicro()
	tf := traceFile{TraceEvents: []traceEvent{}, DisplayTimeUnit: "ms"}
	for _, r := range roots {
		appendEvents(&tf.TraceEvents, r, origin)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// appendEvents adds the span and its subtree depth-first in start order.
func appendEvents(out *[]traceEvent, s *Span, origin int64) {
	if s == nil {
		return
	}
	ev := traceEvent{
		Name:  s.Name(),
		Phase: "X",
		Ts:    s.StartTime().UnixMicro() - origin,
		Dur:   s.Duration().Microseconds(),
		Pid:   1,
		Tid:   1,
	}
	counters := s.Counters()
	if alloc := s.AllocBytes(); alloc > 0 || len(counters) > 0 {
		args := make(map[string]any, len(counters)+1)
		for k, v := range counters {
			args[k] = v
		}
		args["alloc_bytes"] = alloc
		ev.Args = args
	}
	*out = append(*out, ev)
	for _, c := range s.Children() {
		appendEvents(out, c, origin)
	}
}
