package stats

// Binner discretizes a continuous metric into equal-width bins whose first
// and last bin edges are anchored at the 5th and 95th percentile of the
// observed values (paper §5.1.1). Values below the 5th percentile fall into
// the first bin and values above the 95th percentile fall into the last
// bin, which keeps long-tailed practice metrics from collapsing into one or
// two bins and suppresses noise from minor metric deviations.
type Binner struct {
	lo, hi float64 // 5th / 95th percentile anchors
	bins   int
}

// NewBinner builds a Binner with the given number of bins over the observed
// values. The paper uses 10 bins for dependence analysis and 5 bins for
// learning and causal treatment assignment. NewBinner panics if bins < 1.
// With no values, or a degenerate distribution (lo == hi), every input maps
// to bin 0.
func NewBinner(values []float64, bins int) *Binner {
	if bins < 1 {
		panic("stats: NewBinner with bins < 1")
	}
	b := &Binner{bins: bins}
	if len(values) > 0 {
		b.lo = Percentile(values, 5)
		b.hi = Percentile(values, 95)
	}
	return b
}

// NewBinnerBounds builds a Binner with explicit bin anchors, for tests and
// for reusing training-time bin edges on later data (online prediction).
func NewBinnerBounds(lo, hi float64, bins int) *Binner {
	if bins < 1 {
		panic("stats: NewBinnerBounds with bins < 1")
	}
	return &Binner{lo: lo, hi: hi, bins: bins}
}

// Bounds returns the 5th/95th percentile anchors of the binner.
func (b *Binner) Bounds() (lo, hi float64) { return b.lo, b.hi }

// Bin maps a value to its bin index in [0, bins), bins as the binner was
// built with.
func (b *Binner) Bin(v float64) int {
	if b.bins == 1 || b.hi <= b.lo {
		return 0
	}
	if v <= b.lo {
		return 0
	}
	if v >= b.hi {
		return b.bins - 1
	}
	width := (b.hi - b.lo) / float64(b.bins)
	idx := int((v - b.lo) / width)
	if idx >= b.bins {
		idx = b.bins - 1
	}
	return idx
}

// BinAll maps every value in vs to its bin index.
func (b *Binner) BinAll(vs []float64) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = b.Bin(v)
	}
	return out
}

// BinValues is a convenience that builds a binner over values and returns
// the binned values along with the binner.
func BinValues(values []float64, bins int) ([]int, *Binner) {
	b := NewBinner(values, bins)
	return b.BinAll(values), b
}
