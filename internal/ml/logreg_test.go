package ml

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSolveIdentity(t *testing.T) {
	A := [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
	b := []float64{3, -2, 7}
	x := solve(A, b)
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10  =>  x = 1, y = 3.
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x := solve(A, b)
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	A := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x := solve(A, b)
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingularDoesNotPanic(t *testing.T) {
	A := [][]float64{{1, 1}, {1, 1}}
	b := []float64{2, 2}
	x := solve(A, b) // rank-deficient: any solution with zeroed null step
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", x)
		}
	}
}

func TestSolveDoesNotMutateInputs(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	solve(A, b)
	if A[0][0] != 2 || A[1][1] != 3 || b[0] != 5 {
		t.Fatal("solve mutated its inputs")
	}
}

func TestSolveRandomSPDProperty(t *testing.T) {
	// For random symmetric positive-definite systems, A*solve(A,b) == b.
	f := func(seed uint64) bool {
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>40)/(1<<23) - 0.5
		}
		const n = 5
		// A = M^T M + I is SPD.
		M := make([][]float64, n)
		for i := range M {
			M[i] = make([]float64, n)
			for j := range M[i] {
				M[i][j] = next()
			}
		}
		A := make([][]float64, n)
		b := make([]float64, n)
		for i := range A {
			A[i] = make([]float64, n)
			for j := range A[i] {
				for k := 0; k < n; k++ {
					A[i][j] += M[k][i] * M[k][j]
				}
				if i == j {
					A[i][j]++
				}
			}
			b[i] = next()
		}
		x := solve(A, b)
		for i := 0; i < n; i++ {
			var sum float64
			for j := 0; j < n; j++ {
				sum += A[i][j] * x[j]
			}
			if math.Abs(sum-b[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLogRegConvergesFast(t *testing.T) {
	// IRLS should reach the optimum within the iteration budget even on
	// collinear features (the propensity-score regime).
	var X [][]float64
	var y []int
	s := uint64(7)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>40) / (1 << 24)
	}
	for i := 0; i < 400; i++ {
		z := next()
		x1 := z + 0.01*next() // nearly identical features
		x2 := z + 0.01*next()
		label := 0
		if z+0.3*next() > 0.6 {
			label = 1
		}
		X = append(X, []float64{x1, x2})
		y = append(y, label)
	}
	m := TrainLogReg(X, y)
	// Probability must be monotone in z despite collinearity.
	if m.Prob([]float64{0.9, 0.9}) <= m.Prob([]float64{0.1, 0.1}) {
		t.Error("collinear fit not monotone in the underlying signal")
	}
}

func TestLogRegDeterministic(t *testing.T) {
	X := [][]float64{{1, 2}, {2, 1}, {3, 4}, {4, 3}}
	y := []int{0, 0, 1, 1}
	a := TrainLogReg(X, y)
	b := TrainLogReg(X, y)
	for i := range a.weights {
		if a.weights[i] != b.weights[i] {
			t.Fatal("training not deterministic")
		}
	}
}
