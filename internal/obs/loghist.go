package obs

import (
	"math"
	"sync/atomic"
)

// LogHistogram is a log-spaced-bucket distribution for latency-style
// values: bucket boundaries grow geometrically by LogHistGrowth, so any
// quantile estimate carries at most ~5% relative error across the whole
// range — nanoseconds through minutes when observing nanoseconds —
// using a fixed, small amount of memory. Observations are lock-free
// (one atomic add plus CAS loops for sum/min/max), which is what the
// per-endpoint serve latency series need on the hot path.
//
// Values below 1.0 land in a single underflow bucket and values past the
// top boundary (~6.3e11, about 10.5 minutes in nanoseconds) in a single
// overflow bucket; quantiles falling there are answered with the exact
// tracked min/max instead of a bucket midpoint. NaN and ±Inf
// observations are ignored — one bad value must not poison sum or the
// Prometheus exposition.
type LogHistogram struct {
	counts [logHistSlots]atomic.Int64
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, updated by CAS
	min    atomic.Uint64 // float64 bits; +Inf when empty
	max    atomic.Uint64 // float64 bits; -Inf when empty
}

const (
	// LogHistGrowth is the geometric ratio between consecutive bucket
	// boundaries. Estimating a quantile at the geometric midpoint of its
	// bucket then errs by at most √growth−1 ≈ 4.9% relative — the
	// documented LogHistMaxRelError bound.
	LogHistGrowth = 1.1

	// LogHistMaxRelError is the guaranteed relative-error bound of
	// Quantile for values inside the bucketed range, pinned by the
	// property test in loghist_test.go.
	LogHistMaxRelError = 0.05

	// logHistBuckets log-spaced buckets span [1, growth^logHistBuckets):
	// with growth 1.1 the top boundary is ≈6.3e11, i.e. ~10.5 minutes
	// when observing nanoseconds.
	logHistBuckets = 285

	// logHistSlots = underflow + bucketed range + overflow.
	logHistSlots = logHistBuckets + 2

	logHistOverflowIndex = logHistBuckets + 1
)

var invLnLogHistGrowth = 1 / math.Log(LogHistGrowth)

// NewLogHistogram builds an unregistered log histogram; most callers
// want GetLogHistogram instead. Client-side recorders (cmd/mpa-loadgen)
// use unregistered instances so per-run state never leaks into the
// process-wide registry.
func NewLogHistogram() *LogHistogram {
	h := &LogHistogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// logHistIndex maps a finite value onto its bucket slot: 0 for v < 1
// (underflow), 1..logHistBuckets for the geometric range, and the
// overflow slot past the top boundary.
func logHistIndex(v float64) int {
	if v < 1 {
		return 0
	}
	idx := 1 + int(math.Log(v)*invLnLogHistGrowth)
	if idx > logHistOverflowIndex {
		idx = logHistOverflowIndex
	}
	return idx
}

// logHistLower returns the inclusive lower boundary of bucket i ≥ 1.
func logHistLower(i int) float64 {
	return math.Pow(LogHistGrowth, float64(i-1))
}

// Observe records one value. NaN and ±Inf are ignored.
func (h *LogHistogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.counts[logHistIndex(v)].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= math.Float64frombits(old) || h.min.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) || h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// LogBucket is one non-empty bucket of a LogHistogram snapshot. Index 0
// is the underflow bucket (v < 1); index i ≥ 1 covers
// [growth^(i-1), growth^i); the final index is the overflow bucket.
type LogBucket struct {
	Index int   `json:"index"`
	Count int64 `json:"count"`
}

// LogHistogramSnapshot is a point-in-time copy of a LogHistogram,
// sparse: only non-empty buckets are kept, in ascending index order, so
// a mostly-idle endpoint costs a few bytes in manifests and /debug/slo
// rather than hundreds of zeros. Min and Max are 0 when Count is 0.
type LogHistogramSnapshot struct {
	Growth  float64     `json:"growth"`
	Buckets []LogBucket `json:"buckets,omitempty"`
	Count   int64       `json:"count"`
	Sum     float64     `json:"sum"`
	Min     float64     `json:"min"`
	Max     float64     `json:"max"`
}

// Snapshot copies the histogram's current state.
func (h *LogHistogram) Snapshot() LogHistogramSnapshot {
	snap := LogHistogramSnapshot{Growth: LogHistGrowth}
	if h == nil {
		return snap
	}
	snap.Count = h.total.Load()
	snap.Sum = math.Float64frombits(h.sum.Load())
	if snap.Count > 0 {
		snap.Min = math.Float64frombits(h.min.Load())
		snap.Max = math.Float64frombits(h.max.Load())
	}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			snap.Buckets = append(snap.Buckets, LogBucket{Index: i, Count: c})
		}
	}
	return snap
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (s LogHistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the p-quantile: the value at rank ⌈p·count⌉ of the
// sorted observations (so p=0.5 on 10 samples is the 5th smallest,
// matching sorted[⌈p·n⌉−1]). The estimate is the geometric midpoint of
// the bucket holding that rank, clamped to the exact tracked [min, max],
// and is within LogHistMaxRelError (5%) relative of the true value for
// observations in the bucketed range [1, growth^285). Ranks landing in
// the underflow or overflow bucket return the exact min or max. p ≤ 0
// returns min, p ≥ 1 returns max; an empty histogram returns 0.
func (s LogHistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 1 {
		return s.Max
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum < rank {
			continue
		}
		switch b.Index {
		case 0:
			return s.Min
		case logHistOverflowIndex:
			return s.Max
		}
		lo := logHistLower(b.Index)
		est := lo * math.Sqrt(LogHistGrowth) // geometric midpoint of [lo, lo·growth)
		return math.Min(math.Max(est, s.Min), s.Max)
	}
	return s.Max
}
