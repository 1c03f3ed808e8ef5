package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("Min/Max of empty should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {75, 7.75},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEq(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentile([]float64{42}, 37); got != 42 {
		t.Errorf("Percentile singleton = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile empty = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated input: %v", xs)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almostEq(got, 2.5, 1e-12) {
		t.Errorf("Median even = %v", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect positive = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect negative = %v", got)
	}
	if got := Pearson(xs, []float64{7, 7, 7, 7, 7}); got != 0 {
		t.Errorf("zero-variance = %v", got)
	}
	if got := Pearson(xs, ys[:3]); got != 0 {
		t.Errorf("length mismatch = %v", got)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(seed int64) bool {
		// Pseudo-random but deterministic data from the seed.
		xs := make([]float64, 20)
		ys := make([]float64, 20)
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		for i := range xs {
			xs[i], ys[i] = next(), next()
		}
		r := Pearson(xs, ys)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxSummary(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := Box(xs)
	if b.N != 10 {
		t.Errorf("N = %d", b.N)
	}
	if !almostEq(b.Median, 5.5, 1e-9) {
		t.Errorf("median = %v", b.Median)
	}
	if b.Q25 >= b.Q75 {
		t.Errorf("quartiles inverted: %v >= %v", b.Q25, b.Q75)
	}
	// 100 is far beyond Q75 + 2*IQR and must be excluded from whiskers.
	if b.WhiskerHi >= 100 {
		t.Errorf("whisker includes extreme outlier: %v", b.WhiskerHi)
	}
	if b.IQROutside != 1 {
		t.Errorf("IQROutside = %d, want 1", b.IQROutside)
	}
}

func TestBoxEmpty(t *testing.T) {
	b := Box(nil)
	if b.N != 0 || b.Mean != 0 {
		t.Errorf("empty box = %+v", b)
	}
}

func TestBoxWhiskerOrdering(t *testing.T) {
	f := func(seed int64) bool {
		s := uint64(seed)
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>40) / 100
		}
		xs := make([]float64, 31)
		for i := range xs {
			xs[i] = next()
		}
		b := Box(xs)
		return b.WhiskerLo <= b.Q25+1e-9 && b.Q25 <= b.Median+1e-9 &&
			b.Median <= b.Q75+1e-9 && b.Q75 <= b.WhiskerHi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CDFAt(xs, 2.5); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("CDFAt = %v", got)
	}
	if got := CDFAt(xs, 0); got != 0 {
		t.Errorf("CDFAt below min = %v", got)
	}
	if got := CDFAt(xs, 10); got != 1 {
		t.Errorf("CDFAt above max = %v", got)
	}
	if got := CDFAt(nil, 1); got != 0 {
		t.Errorf("CDFAt empty = %v", got)
	}
}

func TestStdMeanDiff(t *testing.T) {
	treated := []float64{10, 12, 14}
	untreated := []float64{10, 12, 14}
	if got := StdMeanDiff(treated, untreated); got != 0 {
		t.Errorf("identical groups diff = %v", got)
	}
	shifted := []float64{20, 22, 24}
	if got := StdMeanDiff(shifted, untreated); got <= 0 {
		t.Errorf("positive shift diff = %v", got)
	}
	// Degenerate: zero treated variance, differing means.
	if got := StdMeanDiff([]float64{5, 5}, []float64{7, 7}); !math.IsInf(got, -1) {
		t.Errorf("degenerate diff = %v, want -Inf", got)
	}
	if got := StdMeanDiff([]float64{5, 5}, []float64{5, 5}); got != 0 {
		t.Errorf("degenerate equal diff = %v", got)
	}
}

func TestVarianceRatio(t *testing.T) {
	if got := VarianceRatio([]float64{1, 3}, []float64{1, 3}); !almostEq(got, 1, 1e-12) {
		t.Errorf("equal variance ratio = %v", got)
	}
	if got := VarianceRatio([]float64{0, 4}, []float64{1, 3}); !almostEq(got, 4, 1e-12) {
		t.Errorf("ratio = %v, want 4", got)
	}
	if got := VarianceRatio([]float64{5, 5}, []float64{5, 5}); got != 1 {
		t.Errorf("both zero ratio = %v", got)
	}
	if got := VarianceRatio([]float64{0, 4}, []float64{5, 5}); !math.IsInf(got, 1) {
		t.Errorf("zero untreated ratio = %v", got)
	}
}
