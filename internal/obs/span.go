package obs

import (
	"context"
	"fmt"
	"maps"
	"runtime/metrics"
	"sync"
	"time"
)

// Span is one timed region of the pipeline. Spans form a tree: a stage
// span ("inference") holds per-network children, which may hold per-month
// children. Each span records its wall-clock duration, the bytes
// allocated while it was open, and a set of named counters.
//
// A request root (NewRequestRoot) and its whole tree sample no
// allocation totals; their AllocBytes reads 0.
//
// Every method is safe on a nil receiver and does nothing, so
// instrumented code never guards call sites: un-wired pipelines (library
// use, benchmarks) pass nil spans and pay only the nil check.
//
// Spans are safe for concurrent use: children may be started and counters
// added from multiple goroutines. A stage table (NewStageTable) is a root
// that keeps per-stage rows instead of children.
type Span struct {
	name  string
	table *stageTable // a stage table's rows
	owner *Span       // the stage table this stage was opened on
	// noAlloc marks a request tree, whose spans skip the allocation
	// samples at Start and End (NewRequestRoot).
	noAlloc bool

	mu         sync.Mutex
	start      time.Time
	startAlloc uint64
	dur        time.Duration
	alloc      uint64
	ended      bool
	counters   map[string]float64
	children   []*Span
}

// NewRoot starts a root span that keeps its whole tree, such as one serve
// request's span.
func NewRoot(name string) *Span {
	return &Span{
		name:       name,
		start:      time.Now(),
		startAlloc: heapAllocBytes(),
	}
}

// NewRequestRoot starts a root span like NewRoot whose tree samples no
// allocation totals: it and every span started under it report
// AllocBytes 0, and Start and End skip the two runtime/metrics reads a
// span otherwise makes. A serve request's root uses it. On a concurrent
// daemon the process-wide allocation delta over one request counts every
// goroutine's allocations, so it was never the request's own figure.
func NewRequestRoot(name string) *Span {
	return &Span{name: name, start: time.Now(), noAlloc: true}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Start opens a child span. On a nil receiver it returns nil, which keeps
// the whole downstream instrumentation free.
//
// The start timestamp is taken under the parent's lock, so a span's
// children are ordered by start time even when they are started from
// concurrent goroutines — trace exports rely on this monotonicity.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{name: name, noAlloc: s.noAlloc}
	if !s.noAlloc {
		child.startAlloc = heapAllocBytes()
	}
	s.mu.Lock()
	child.start = time.Now()
	if s.table != nil {
		child.owner = s
		s.table.open(name)
	} else {
		s.children = append(s.children, child)
	}
	s.mu.Unlock()
	return child
}

// End closes the span, fixing its duration and allocation delta. Ending
// twice keeps the first measurement. A stage of a stage table is then
// folded into its row and its tree handed on (NewStageTable).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	if !s.noAlloc {
		if a := heapAllocBytes(); a > s.startAlloc {
			s.alloc = a - s.startAlloc
		}
	}
	dur, alloc := s.dur, s.alloc
	s.mu.Unlock()
	if t := s.owner; t != nil {
		counters := s.Counters()
		t.mu.Lock()
		t.table.rows[t.table.index[s.name]].fold(dur, alloc, counters)
		t.mu.Unlock()
		DefaultRecorder().Record(s, RequestMeta{ID: fmt.Sprintf(stageIDPrefix+"%03d-%s", stageSeq.Add(1)-1, s.name)})
		if c := tracing.Load(); c != nil {
			c.mu.Lock()
			c.children = append(c.children, s)
			c.mu.Unlock()
		}
	}
}

// Duration returns the span's wall-clock duration; for a still-open span
// it is the time elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// AllocBytes returns the bytes allocated while the span was open (0 until
// End for open spans — allocation deltas are sampled once, at End, to
// keep open-span reads cheap).
func (s *Span) AllocBytes() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.alloc
}

// Ended reports whether End has been called.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ended
}

// Count adds delta to the span's named counter, creating it at zero.
func (s *Span) Count(name string, delta float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]float64, 4)
	}
	s.counters[name] += delta
	s.mu.Unlock()
}

// Counter returns the current value of one named counter.
func (s *Span) Counter(name string) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters[name]
}

// Counters returns a copy of the span's counters.
func (s *Span) Counters() map[string]float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counters) == 0 {
		return nil
	}
	return maps.Clone(s.counters)
}

// Children returns a copy of the span's direct children, in start order
// (none on a stage table, which keeps no children).
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// StartTime returns when the span was opened.
func (s *Span) StartTime() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// spanCtxKey keys the request span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying s, for handler chains that pass
// a request-scoped span down to the code doing the work.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFrom returns the span carried by ctx, or nil — and since every
// Span method is nil-safe, callers never need to check.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// heapAllocBytes reads the runtime's cumulative heap-allocation total.
// runtime/metrics reads do not stop the world, so sampling at span
// boundaries stays cheap enough for per-network and per-month spans.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}
