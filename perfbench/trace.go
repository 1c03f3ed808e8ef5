package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpa"
	"mpa/internal/obs"
)

// span is one recorded interval: a client request or a layer call made
// from the benchmark. Spans of one HTTP request carry its request ID,
// which the daemon echoes and records in its flight recorder.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Request string `json:"request_id,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing; its methods are safe to call.
type tracer struct {
	t0    time.Time
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) nextRequestID() string {
	return fmt.Sprintf("perfbench-%d", t.reqs.Add(1))
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Request: req, StartNS: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// time records fn as a span and returns its duration.
func (t *tracer) time(name string, parent int, fn func()) time.Duration {
	id := t.begin(name, parent, "")
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	b, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stageNames are the framework pipeline stages (spans directly under a
// framework's root, see mpa.Framework.StageCalls) a phase counts.
var stageNames = []string{
	"inference", "dataset.build", "mi_ranking", "causal", "train_model", "ingest",
	"experiment:table3", "experiment:table7", "experiment:table8", "experiment:figure8", "experiment:table9",
}

// counterNames are the program's own process counters a phase diffs.
var counterNames = func() []string {
	out := []string{"inference.snapshots_parsed", "inference.diffs"}
	for _, st := range []string{"parse", "confdiff", "practices", "dataset"} {
		for _, c := range []string{"mem_hits", "mem_misses", "disk_hits", "disk_misses"} {
			out = append(out, "cache."+st+"."+c)
		}
	}
	return out
}()

// phase accumulates what the traced run observes during a workload's
// timed phase: stage calls, counter and runtime deltas, query-memo
// activity, and refresh timings. A nil phase (untraced run) ignores all.
type phase struct {
	tr       *tracer
	id       int
	start    time.Time
	wall     time.Duration
	spans0   int
	spans    int
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	counters map[string]int64
	stages   map[string]int

	mu                   sync.Mutex
	memoHits, memoMisses int64
	memo0                [2]int64
	serial, parallel     []time.Duration
	fleet                bool
}

func (r *run) beginPhase() *phase {
	if r.tr == nil {
		return nil
	}
	p := &phase{tr: r.tr, counters: map[string]int64{}, stages: map[string]int{}}
	for _, n := range counterNames {
		p.counters[n] = -obs.GetCounter(n).Value()
	}
	runtime.ReadMemStats(&p.mem0)
	p.spans0 = r.tr.len()
	p.id = r.tr.begin("phase", 0, "")
	p.start = time.Now()
	return p
}

func (p *phase) end() {
	if p == nil {
		return
	}
	p.wall = time.Since(p.start)
	p.tr.end(p.id)
	runtime.ReadMemStats(&p.mem1)
	for _, n := range counterNames {
		p.counters[n] += obs.GetCounter(n).Value()
	}
	p.spans = p.tr.len() - p.spans0
}

func memo(fs []*mpa.Framework) (hits, misses int64) {
	for _, f := range fs {
		s := f.QueryCacheStats()
		hits += s.MemHits
		misses += s.MemMisses
	}
	return hits, misses
}

func (p *phase) memoBegin(fs []*mpa.Framework) {
	if p == nil {
		return
	}
	h, m := memo(fs)
	p.mu.Lock()
	p.memo0 = [2]int64{h, m}
	p.mu.Unlock()
}

func (p *phase) memoEnd(fs []*mpa.Framework) {
	if p == nil {
		return
	}
	h, m := memo(fs)
	p.mu.Lock()
	p.memoHits += h - p.memo0[0]
	p.memoMisses += m - p.memo0[1]
	p.mu.Unlock()
}

// addStagesBefore records stage calls that predate the phase on
// frameworks that live through it.
func (p *phase) addStagesBefore(fs []*mpa.Framework) {
	if p == nil {
		return
	}
	for _, f := range fs {
		for _, n := range stageNames {
			p.stages[n] -= f.StageCalls(n)
		}
	}
}

func (p *phase) addStages(fs []*mpa.Framework) {
	if p == nil {
		return
	}
	for _, f := range fs {
		for _, n := range stageNames {
			p.stages[n] += f.StageCalls(n)
		}
	}
}

func (p *phase) addRefresh(st step, serial bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if serial {
		var sum time.Duration
		for _, l := range st.refreshLats {
			sum += l
		}
		p.serial = append(p.serial, sum)
	} else {
		p.parallel = append(p.parallel, st.refreshOnly)
	}
}
