// Package stats implements the statistical machinery of the MPA framework:
// descriptive statistics, percentile-bounded equal-width binning (paper
// §5.1.1), entropy, mutual information and conditional mutual information
// (§5.1), and the balance diagnostics used to verify propensity-score
// matches (§5.2.4).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted computes a percentile over an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when the slices differ in length, are shorter than 2, or
// either has zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// BoxSummary holds the five-number summary the paper's box-and-whisker
// figures display: quartiles plus whiskers at the most extreme data points
// within twice the interquartile range (Figures 3, 4, 6).
type BoxSummary struct {
	Mean       float64
	Median     float64
	Q25, Q75   float64
	WhiskerLo  float64
	WhiskerHi  float64
	N          int
	IQROutside int // points beyond the whiskers
}

// Box computes a BoxSummary of xs, with whiskers at the most extreme points
// within 2x the interquartile range of the quartiles (paper Figure 3
// caption). An empty slice yields the zero summary.
func Box(xs []float64) BoxSummary {
	if len(xs) == 0 {
		return BoxSummary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	b := BoxSummary{
		Mean:   Mean(sorted),
		Median: percentileSorted(sorted, 50),
		Q25:    percentileSorted(sorted, 25),
		Q75:    percentileSorted(sorted, 75),
		N:      len(sorted),
	}
	iqr := b.Q75 - b.Q25
	lo, hi := b.Q25-2*iqr, b.Q75+2*iqr
	b.WhiskerLo, b.WhiskerHi = b.Median, b.Median
	first := true
	for _, x := range sorted {
		if x < lo || x > hi {
			b.IQROutside++
			continue
		}
		if first {
			b.WhiskerLo, b.WhiskerHi = x, x
			first = false
			continue
		}
		if x < b.WhiskerLo {
			b.WhiskerLo = x
		}
		if x > b.WhiskerHi {
			b.WhiskerHi = x
		}
	}
	return b
}

// CDFAt returns the empirical CDF of xs evaluated at v: the fraction of
// samples <= v.
func CDFAt(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	count := 0
	for _, x := range xs {
		if x <= v {
			count++
		}
	}
	return float64(count) / float64(len(xs))
}

// StdMeanDiff returns the standardized difference of means between the
// treated and untreated samples: (mean(T) - mean(U)) / stddev(T). The paper
// (§5.2.4, after Stuart) requires |value| < 0.25 for an acceptable match.
// A zero treated standard deviation yields 0 when the means agree and
// +/-Inf otherwise.
func StdMeanDiff(treated, untreated []float64) float64 {
	mt, mu := Mean(treated), Mean(untreated)
	st := StdDev(treated)
	if st == 0 {
		if mt == mu {
			return 0
		}
		return math.Inf(sign(mt - mu))
	}
	return (mt - mu) / st
}

// VarianceRatio returns var(treated)/var(untreated). The paper requires the
// ratio to be within [0.5, 2]. Zero untreated variance yields 1 when both
// variances are zero and +Inf otherwise.
func VarianceRatio(treated, untreated []float64) float64 {
	vt, vu := Variance(treated), Variance(untreated)
	if vu == 0 {
		if vt == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return vt / vu
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}
