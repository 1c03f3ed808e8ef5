package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mpa/internal/rng"
)

func TestLogHistogramEmpty(t *testing.T) {
	h := NewLogHistogram()
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 || snap.Min != 0 || snap.Max != 0 {
		t.Errorf("empty snapshot = %+v, want zeros", snap)
	}
	if len(snap.Buckets) != 0 {
		t.Errorf("empty snapshot has %d buckets", len(snap.Buckets))
	}
	if q := snap.Quantile(0.5); q != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", q)
	}
}

func TestLogHistogramNilReceiver(t *testing.T) {
	var h *LogHistogram
	h.Observe(42) // must not panic
	if h.Snapshot().Count != 0 {
		t.Error("nil Count != 0")
	}
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("nil Quantile = %v", q)
	}
}

func TestLogHistogramIgnoresNonFinite(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if n := h.Snapshot().Count; n != 0 {
		t.Fatalf("non-finite observations counted: %d", n)
	}
	h.Observe(10)
	snap := h.Snapshot()
	if snap.Count != 1 || snap.Sum != 10 || snap.Min != 10 || snap.Max != 10 {
		t.Errorf("snapshot after NaN/Inf + one real value = %+v", snap)
	}
}

// TestLogHistogramBucketEdges pins the bucket rule: slot 0 takes v < 1,
// slot i ≥ 1 takes [growth^(i-1), growth^i), and values past the top
// boundary land in the overflow slot; count and sum stay exact.
func TestLogHistogramBucketEdges(t *testing.T) {
	cases := []struct {
		v    float64
		want int // slot index
	}{
		{0, 0},
		{0.999, 0}, // just below 1 is underflow
		{1, 1},     // the first boundary belongs to the bucket it opens
		{1.05, 1},
		{1.2, 2}, // past growth^1 = 1.1
		{1000, 1 + int(math.Log(1000)/math.Log(LogHistGrowth))},
		{1e300, logHistOverflowIndex},
	}
	h := NewLogHistogram()
	wantSum := 0.0
	for _, c := range cases {
		if got := logHistIndex(c.v); got != c.want {
			t.Errorf("logHistIndex(%v) = %d, want %d", c.v, got, c.want)
		}
		h.Observe(c.v)
		wantSum += c.v
	}
	snap := h.Snapshot()
	if snap.Count != int64(len(cases)) || snap.Sum != wantSum {
		t.Errorf("count/sum = %d/%v, want %d/%v", snap.Count, snap.Sum, len(cases), wantSum)
	}
	if len(snap.Buckets) != 5 || snap.Buckets[0] != (LogBucket{Index: 0, Count: 2}) ||
		snap.Buckets[1] != (LogBucket{Index: 1, Count: 2}) {
		t.Errorf("buckets = %+v, want underflow ×2, slot 1 ×2, then one each", snap.Buckets)
	}
}

func TestLogHistogramMinMaxSumCount(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []float64{3, 1500, 7, 42} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if snap.Count != 4 {
		t.Errorf("count = %d, want 4", snap.Count)
	}
	if snap.Min != 3 || snap.Max != 1500 {
		t.Errorf("min/max = %v/%v, want 3/1500", snap.Min, snap.Max)
	}
	if snap.Sum != 1552 {
		t.Errorf("sum = %v, want 1552", snap.Sum)
	}
	if got := snap.Mean(); got != 388 {
		t.Errorf("mean = %v, want 388", got)
	}
}

// TestLogHistogramUnderOverflow pins the out-of-range semantics: ranks
// landing in the underflow or overflow bucket are answered with the
// exact min/max, never a bucket midpoint.
func TestLogHistogramUnderOverflow(t *testing.T) {
	h := NewLogHistogram()
	h.Observe(0.25)  // underflow (< 1)
	h.Observe(7e300) // overflow (clamped into the last slot, not dropped)
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("count = %d, want 2", snap.Count)
	}
	if q := snap.Quantile(0.5); q != 0.25 {
		t.Errorf("Quantile(0.5) = %v, want exact min 0.25", q)
	}
	if q := snap.Quantile(0.99); q != 7e300 {
		t.Errorf("Quantile(0.99) = %v, want exact max", q)
	}
}

func TestLogHistogramQuantileEdges(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []float64{10, 20, 30} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	if q := snap.Quantile(0); q != 10 {
		t.Errorf("Quantile(0) = %v, want min", q)
	}
	if q := snap.Quantile(1); q != 30 {
		t.Errorf("Quantile(1) = %v, want max", q)
	}
}

// TestLogHistogramQuantileRelativeError is the property test pinning the
// documented bound: on randomized workloads drawn from several latency-
// shaped distributions, every estimated quantile is within
// LogHistMaxRelError (5%) relative of the exact sorted-order quantile
// sorted[⌈p·n⌉−1].
func TestLogHistogramQuantileRelativeError(t *testing.T) {
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999}
	r := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		n := 10 + r.Intn(3000)
		values := make([]float64, n)
		h := NewLogHistogram()
		for i := range values {
			var v float64
			switch trial % 4 {
			case 0: // log-normal: the classic latency shape
				v = r.LogNormal(12, 2.5)
			case 1: // exponential, scaled into the µs–ms range
				v = 1 + r.Exponential(5e6)
			case 2: // uniform across nine decades
				v = math.Pow(10, 9*r.Float64())
			default: // heavy-tailed mixture with a distinct slow mode
				v = 1 + r.Exponential(1e4)
				if r.Bool(0.05) {
					v *= 1e5
				}
			}
			// Keep values inside the bucketed range [1, growth^285): the
			// bound is documented only there (outside it the estimate is
			// exact min/max anyway, tested separately).
			v = math.Min(math.Max(v, 1), 1e11)
			values[i] = v
			h.Observe(v)
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		snap := h.Snapshot()
		for _, p := range quantiles {
			rank := int(math.Ceil(p * float64(n)))
			if rank < 1 {
				rank = 1
			}
			exact := sorted[rank-1]
			got := snap.Quantile(p)
			relErr := math.Abs(got-exact) / exact
			if relErr > LogHistMaxRelError+1e-12 {
				t.Fatalf("trial %d n=%d p=%v: estimate %v vs exact %v, rel err %.4f > %v",
					trial, n, p, got, exact, relErr, LogHistMaxRelError)
			}
		}
	}
}

func TestLogHistogramConcurrency(t *testing.T) {
	h := NewLogHistogram()
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(1 + (g*perG+i)%1000))
			}
		}(g)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", snap.Count, goroutines*perG)
	}
	var bucketTotal int64
	for _, b := range snap.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != snap.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, snap.Count)
	}
	if snap.Min != 1 || snap.Max != 1000 {
		t.Errorf("min/max = %v/%v, want 1/1000", snap.Min, snap.Max)
	}
}

func TestGetLogHistogramRegistry(t *testing.T) {
	a := GetLogHistogram("loghisttest.latency_ns")
	b := GetLogHistogram("loghisttest.latency_ns")
	if a != b {
		t.Fatal("GetLogHistogram did not return the same instance")
	}
	a.Observe(12345)
	snap := SnapshotMetrics()
	ls, ok := snap.LogHistograms["loghisttest.latency_ns"]
	if !ok {
		t.Fatal("registered log histogram missing from SnapshotMetrics")
	}
	if ls.Count < 1 {
		t.Errorf("snapshot count = %d, want ≥ 1", ls.Count)
	}
}

// TestPromLogHistogramExposition checks the sparse cumulative rendering:
// monotone bucket counts ending at the total, and sum/count series.
func TestPromLogHistogramExposition(t *testing.T) {
	h := NewLogHistogram()
	for _, v := range []float64{0.5, 2, 2, 50, 1e6, 9e300} {
		h.Observe(v)
	}
	var b strings.Builder
	writePromLogHistogram(&b, "mpa_t_latency_ns", h.Snapshot())
	out := b.String()
	if !strings.Contains(out, "# TYPE mpa_t_latency_ns histogram\n") {
		t.Errorf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `mpa_t_latency_ns_bucket{le="+Inf"} 6`) {
		t.Errorf("missing +Inf bucket at total count:\n%s", out)
	}
	if !strings.Contains(out, "mpa_t_latency_ns_count 6\n") {
		t.Errorf("missing count series:\n%s", out)
	}
	// The overflow observation must appear only in +Inf, not as a
	// finite-boundary bucket line.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "le=\"+Inf\"") || !strings.Contains(line, "_bucket") {
			continue
		}
		fields := strings.Fields(line)
		cum, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if cum > 5 {
			t.Errorf("finite bucket %q includes the overflow observation", line)
		}
	}
}
