package obs

import (
	"expvar"
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically named event count. It is safe for concurrent
// use and costs one atomic add per Add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a named instantaneous value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by delta, atomically with respect to concurrent
// Add calls — the shape up/down tallies want (e.g. serve.streams_open),
// where concurrent Set-after-read would lose updates.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// registry is the process-wide named-metric store, published once through
// expvar under the "mpa" variable.
var registry = struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	loghists map[string]*LogHistogram
}{
	counters: map[string]*Counter{},
	gauges:   map[string]*Gauge{},
	loghists: map[string]*LogHistogram{},
}

func init() {
	expvar.Publish("mpa", expvar.Func(exportAll))
}

// GetCounter returns the process-wide counter with the given name,
// creating it on first use. Names are conventionally "stage.event",
// e.g. "inference.snapshots_parsed".
func GetCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	c, ok := registry.counters[name]
	if !ok {
		c = &Counter{}
		registry.counters[name] = c
	}
	return c
}

// GetGauge returns the process-wide gauge with the given name, creating
// it on first use.
func GetGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	g, ok := registry.gauges[name]
	if !ok {
		g = &Gauge{}
		registry.gauges[name] = g
	}
	return g
}

// GetLogHistogram returns the process-wide log-spaced histogram with
// the given name, creating it on first use. There are no bounds to
// choose: every LogHistogram shares the fixed geometric bucket layout
// (see LogHistGrowth). Durations are recorded in nanoseconds under
// "_ns" names.
func GetLogHistogram(name string) *LogHistogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	h, ok := registry.loghists[name]
	if !ok {
		h = NewLogHistogram()
		registry.loghists[name] = h
	}
	return h
}

// MetricsSnapshot is a point-in-time copy of the whole metric registry,
// consumed by the expvar export, the Prometheus exposition handler, and
// run manifests (internal/runinfo).
type MetricsSnapshot struct {
	Counters      map[string]int64                `json:"counters"`
	Gauges        map[string]float64              `json:"gauges"`
	LogHistograms map[string]LogHistogramSnapshot `json:"log_histograms,omitempty"`
}

// SnapshotMetrics copies every registered counter, gauge, and histogram.
func SnapshotMetrics() MetricsSnapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	snap := MetricsSnapshot{
		Counters:      make(map[string]int64, len(registry.counters)),
		Gauges:        make(map[string]float64, len(registry.gauges)),
		LogHistograms: make(map[string]LogHistogramSnapshot, len(registry.loghists)),
	}
	for name, c := range registry.counters {
		snap.Counters[name] = c.Value()
	}
	for name, g := range registry.gauges {
		snap.Gauges[name] = g.Value()
	}
	for name, h := range registry.loghists {
		snap.LogHistograms[name] = h.Snapshot()
	}
	return snap
}

// exportAll renders the registry for expvar (`/debug/vars` → "mpa").
func exportAll() any { return SnapshotMetrics() }
