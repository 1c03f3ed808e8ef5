// Package hypothesis implements the nonparametric significance test MPA
// uses to decide whether a management practice causally impacts network
// health (paper §5.2.5): the sign test over matched-pair outcome
// differences. The sign test makes few assumptions about the distribution
// of differences and is well-suited to matched-design experiments
// (Hollander & Wolfe 1973).
package hypothesis

import "math"

// SignTestResult summarizes a two-sided sign test over matched pairs.
type SignTestResult struct {
	Positive int     // pairs with outcome difference > 0 ("more tickets")
	Negative int     // pairs with outcome difference < 0 ("fewer tickets")
	Ties     int     // pairs with zero difference ("no effect"), excluded
	PValue   float64 // two-sided p-value for H0: median difference is 0
}

// N returns the number of non-tied pairs the test was computed over.
func (r SignTestResult) N() int { return r.Positive + r.Negative }

// SignificantAt reports whether the p-value falls below alpha. The paper
// uses the moderately conservative threshold alpha = 0.001.
func (r SignTestResult) SignificantAt(alpha float64) bool {
	return r.N() > 0 && r.PValue < alpha
}

// SignTest runs a two-sided sign test on the given outcome differences
// (treated minus untreated, one per matched pair). Zero differences are
// counted as ties and excluded, per standard practice. With no non-tied
// pairs the p-value is 1.
func SignTest(diffs []float64) SignTestResult {
	var r SignTestResult
	for _, d := range diffs {
		switch {
		case d > 0:
			r.Positive++
		case d < 0:
			r.Negative++
		default:
			r.Ties++
		}
	}
	r.PValue = SignTestCounts(r.Positive, r.Negative)
	return r
}

// SignTestCounts returns the two-sided sign-test p-value for the given
// positive/negative counts: 2 * P(X <= min(pos, neg)) for X ~
// Binomial(pos+neg, 1/2), capped at 1.
func SignTestCounts(pos, neg int) float64 {
	n := pos + neg
	if n == 0 {
		return 1
	}
	k := pos
	if neg < k {
		k = neg
	}
	p := 2 * BinomCDF(k, n, 0.5)
	if p > 1 {
		return 1
	}
	return p
}

// BinomCDF returns P(X <= k) for X ~ Binomial(n, p), computed exactly in
// log space. Exact summation is fine for the case counts MPA sees
// (thousands of matched pairs). It is exported for the Rosenbaum
// sensitivity analysis in the qed package.
func BinomCDF(k, n int, p float64) float64 {
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	var total float64
	for i := 0; i <= k; i++ {
		total += math.Exp(logBinomPMF(i, n, p))
	}
	if total > 1 {
		return 1
	}
	return total
}

// logBinomPMF returns log P(X = k) for X ~ Binomial(n, p).
func logBinomPMF(k, n int, p float64) float64 {
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return logChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p)
}

// logChoose returns log C(n, k) via log-gamma.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	lg := func(x int) float64 {
		v, _ := math.Lgamma(float64(x + 1))
		return v
	}
	return lg(n) - lg(k) - lg(n-k)
}
