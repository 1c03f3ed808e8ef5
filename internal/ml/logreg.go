package ml

import (
	"math"

	"mpa/internal/obs"
)

// Logistic-regression training, sufficient for propensity-score
// estimation over ~30 standardized, often collinear features.
const (
	// logRegIterations bounds the IRLS (Newton) steps; convergence is
	// usually reached well before the bound.
	logRegIterations = 50
	// logRegL2 is the ridge penalty. Operational confounders can nearly
	// determine operational treatments (e.g. config changes vs change
	// events); without meaningful shrinkage the propensity model
	// separates the groups perfectly, scores saturate at 0/1, and common
	// support vanishes. A moderate ridge keeps the score distributions
	// overlapping and the Newton system well-conditioned.
	logRegL2 = 0.05
	// logRegTolerance stops iteration when the max coefficient update
	// falls below it.
	logRegTolerance = 1e-8
)

// LogReg is a binary logistic-regression model over float features. MPA
// uses it to estimate propensity scores: the probability a case received
// treatment given its confounding practices (paper §5.2.3, after Stuart &
// Rubin).
type LogReg struct {
	weights []float64 // coefficients, bias last
	mean    []float64 // feature standardization
	std     []float64
	iters   int // Newton steps actually taken
}

// Iterations returns the number of IRLS steps training performed before
// converging or hitting the bound.
func (m *LogReg) Iterations() int { return m.iters }

// TrainLogReg fits the model by iteratively reweighted least squares
// (Newton's method) on standardized features. IRLS converges in a handful
// of iterations even when confounders are strongly collinear — the regime
// propensity-score estimation lives in (paper §5.1.2: many practices are
// statistically dependent on each other). Training is deterministic.
func TrainLogReg(X [][]float64, y []int) *LogReg {
	if len(X) == 0 {
		panic("ml: TrainLogReg with no data")
	}
	d := len(X[0])
	m := &LogReg{
		weights: make([]float64, d+1),
		mean:    make([]float64, d),
		std:     make([]float64, d),
	}
	// Standardize: zero mean, unit variance (constant features get
	// std 1 so they contribute nothing).
	n := float64(len(X))
	for j := 0; j < d; j++ {
		var sum float64
		for i := range X {
			sum += X[i][j]
		}
		m.mean[j] = sum / n
		var ss float64
		for i := range X {
			dv := X[i][j] - m.mean[j]
			ss += dv * dv
		}
		m.std[j] = math.Sqrt(ss / n)
		if m.std[j] == 0 {
			m.std[j] = 1
		}
	}
	Z := make([][]float64, len(X))
	for i := range X {
		row := make([]float64, d+1)
		for j := 0; j < d; j++ {
			row[j] = (X[i][j] - m.mean[j]) / m.std[j]
		}
		row[d] = 1 // intercept column
		Z[i] = row
	}

	dim := d + 1
	hess := make([][]float64, dim)
	for j := range hess {
		hess[j] = make([]float64, dim)
	}
	grad := make([]float64, dim)
	for it := 0; it < logRegIterations; it++ {
		m.iters++
		for j := 0; j < dim; j++ {
			grad[j] = 0
			for k := 0; k < dim; k++ {
				hess[j][k] = 0
			}
		}
		for i := range Z {
			p := m.probStd(Z[i][:d])
			err := p - float64(y[i])
			wgt := p * (1 - p)
			if wgt < 1e-10 {
				wgt = 1e-10
			}
			for j := 0; j < dim; j++ {
				grad[j] += err * Z[i][j]
				zj := wgt * Z[i][j]
				for k := j; k < dim; k++ {
					hess[j][k] += zj * Z[i][k]
				}
			}
		}
		// Symmetrize, add ridge (not on the intercept), and solve.
		for j := 0; j < dim; j++ {
			for k := 0; k < j; k++ {
				hess[j][k] = hess[k][j]
			}
			if j < d {
				grad[j] += logRegL2 * n * m.weights[j]
				hess[j][j] += logRegL2 * n
			}
			hess[j][j] += 1e-9 // numeric floor
		}
		step := solve(hess, grad)
		maxStep := 0.0
		for j := 0; j < dim; j++ {
			m.weights[j] -= step[j]
			if s := math.Abs(step[j]); s > maxStep {
				maxStep = s
			}
		}
		if maxStep < logRegTolerance {
			break
		}
	}
	obs.GetCounter("ml.logreg_iterations").Add(int64(m.iters))
	return m
}

// solve performs Gaussian elimination with partial pivoting on a copy of
// A, returning x with A x = b. Dimensions are tiny (confounder count + 1).
func solve(A [][]float64, b []float64) []float64 {
	n := len(b)
	// Copy.
	M := make([][]float64, n)
	for i := range M {
		M[i] = append(append([]float64{}, A[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(M[r][col]) > math.Abs(M[pivot][col]) {
				pivot = r
			}
		}
		M[col], M[pivot] = M[pivot], M[col]
		p := M[col][col]
		if math.Abs(p) < 1e-300 {
			continue // singular direction; leave step zero
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := M[r][col] / p
			for c := col; c <= n; c++ {
				M[r][c] -= f * M[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		if math.Abs(M[i][i]) < 1e-300 {
			x[i] = 0
			continue
		}
		x[i] = M[i][n] / M[i][i]
	}
	return x
}

// probStd evaluates the model on an already-standardized row.
func (m *LogReg) probStd(z []float64) float64 {
	total := m.weights[len(m.weights)-1]
	for j, v := range z {
		total += m.weights[j] * v
	}
	return sigmoid(total)
}

// Prob returns P(y=1 | x) for a raw (unstandardized) feature row.
func (m *LogReg) Prob(x []float64) float64 {
	total := m.weights[len(m.weights)-1]
	for j, v := range x {
		total += m.weights[j] * (v - m.mean[j]) / m.std[j]
	}
	return sigmoid(total)
}

func sigmoid(v float64) float64 {
	if v >= 0 {
		e := math.Exp(-v)
		return 1 / (1 + e)
	}
	e := math.Exp(v)
	return e / (1 + e)
}
