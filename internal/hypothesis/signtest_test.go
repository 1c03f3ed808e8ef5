package hypothesis

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSignTestBalanced(t *testing.T) {
	// 5 positive, 5 negative: p-value must be 1 (capped).
	diffs := []float64{1, 1, 1, 1, 1, -1, -1, -1, -1, -1}
	r := SignTest(diffs)
	if r.Positive != 5 || r.Negative != 5 || r.Ties != 0 {
		t.Fatalf("counts = %+v", r)
	}
	if r.PValue != 1 {
		t.Errorf("balanced p-value = %v, want 1", r.PValue)
	}
}

func TestSignTestExtreme(t *testing.T) {
	// 20 positive, 0 negative: p = 2 * 0.5^20.
	diffs := make([]float64, 20)
	for i := range diffs {
		diffs[i] = 2
	}
	r := SignTest(diffs)
	want := 2 * math.Pow(0.5, 20)
	if !almostEq(r.PValue, want, 1e-12) {
		t.Errorf("p-value = %v, want %v", r.PValue, want)
	}
	if !r.SignificantAt(0.001) {
		t.Error("extreme result should be significant at 0.001")
	}
}

func TestSignTestTiesExcluded(t *testing.T) {
	diffs := []float64{0, 0, 0, 1, -1}
	r := SignTest(diffs)
	if r.Ties != 3 || r.N() != 2 {
		t.Fatalf("ties handling wrong: %+v", r)
	}
	if r.PValue != 1 {
		t.Errorf("1-vs-1 p-value = %v, want 1", r.PValue)
	}
}

func TestSignTestEmpty(t *testing.T) {
	r := SignTest(nil)
	if r.PValue != 1 {
		t.Errorf("empty p-value = %v, want 1", r.PValue)
	}
	if r.SignificantAt(0.05) {
		t.Error("empty test must not be significant")
	}
}

func TestSignTestKnownValue(t *testing.T) {
	// 8 positive, 2 negative, n = 10: p = 2 * P(X <= 2)
	//   = 2 * (C(10,0)+C(10,1)+C(10,2)) / 2^10 = 2 * 56/1024 = 0.109375.
	p := SignTestCounts(8, 2)
	if !almostEq(p, 0.109375, 1e-9) {
		t.Errorf("p-value = %v, want 0.109375", p)
	}
}

func TestSignTestSymmetric(t *testing.T) {
	f := func(a, b uint8) bool {
		return almostEq(SignTestCounts(int(a), int(b)), SignTestCounts(int(b), int(a)), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignTestMonotoneInImbalance(t *testing.T) {
	// With fixed n, a more imbalanced split must have smaller p.
	n := 100
	prev := 1.1
	for pos := 50; pos <= 100; pos += 5 {
		p := SignTestCounts(pos, n-pos)
		if p > prev+1e-12 {
			t.Errorf("p-value not monotone: pos=%d p=%v prev=%v", pos, p, prev)
		}
		prev = p
	}
}

func TestSignTestPValueRange(t *testing.T) {
	f := func(a, b uint8) bool {
		p := SignTestCounts(int(a), int(b))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSignTestLargeN(t *testing.T) {
	// Paper Table 6, comparison 1:2 scale: 830 more vs 562 fewer.
	p := SignTestCounts(830, 562)
	if p >= 0.001 {
		t.Errorf("large imbalance p = %v, want < 0.001", p)
	}
	if p <= 0 {
		t.Errorf("p-value underflowed to %v", p)
	}
}

func TestBinomPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 20, 100} {
		var sum float64
		for k := 0; k <= n; k++ {
			sum += math.Exp(logBinomPMF(k, n, 0.37))
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Errorf("pmf sum for n=%d is %v", n, sum)
		}
	}
}

func TestBinomPMFEdges(t *testing.T) {
	if got := math.Exp(logBinomPMF(0, 10, 0)); got != 1 {
		t.Errorf("PMF(0;10,0) = %v", got)
	}
	if got := math.Exp(logBinomPMF(3, 10, 0)); got != 0 {
		t.Errorf("PMF(3;10,0) = %v", got)
	}
	if got := math.Exp(logBinomPMF(10, 10, 1)); got != 1 {
		t.Errorf("PMF(10;10,1) = %v", got)
	}
	if got := math.Exp(logBinomPMF(9, 10, 1)); got != 0 {
		t.Errorf("PMF(9;10,1) = %v", got)
	}
}
