// Package qed implements MPA's quasi-experimental causal analysis (paper
// §5.2): matched-design experiments that test whether a management
// practice (treatment) causally impacts network health (outcome), while
// eliminating the effects of the remaining practices (confounders).
//
// The pipeline follows the paper's four steps: (1) bin the treatment
// metric and compare neighboring bins (treated vs untreated); (2) match
// treated to untreated cases by k=1 nearest-neighbor on propensity scores,
// with replacement, after common-support trimming; (3) verify match
// quality with standardized mean differences and variance ratios over the
// propensity scores and every confounder; (4) sign-test the matched-pair
// outcome differences against the null of zero median effect.
package qed

import (
	"fmt"
	"math"
	"sort"

	"mpa/internal/dataset"
	"mpa/internal/hypothesis"
	"mpa/internal/ml"
	"mpa/internal/obs"
	"mpa/internal/stats"
)

// Config parameterizes a causal analysis.
type Config struct {
	// Confounders are the practice metrics to control for. The paper
	// includes all practice metrics except the treatment (§5.2.3).
	Confounders []string
	// Matching selects the pairing method; the default is propensity
	// scores (the paper's choice); exact and Mahalanobis matching are
	// provided as the baselines the paper rejects.
	Matching MatchMethod
	// Obs, when set, is the parent span under which Run records a
	// "causal" span with per-comparison-point children and matching
	// counters (pairs, fit iterations, balance rejections).
	Obs *obs.Span
}

// The paper's analysis parameters (§5.2).
const (
	// bins is the number of treatment bins, yielding bins-1 comparison
	// points.
	bins = 5
	// alpha is the significance threshold for rejecting the null (a
	// moderately conservative 0.001).
	alpha = 0.001
	// minCases is the minimum group size for a comparison point to be
	// attempted.
	minCases = 20
	// maxImbalancedFrac is the fraction of confounders allowed to miss
	// the balance thresholds before the whole matching is declared
	// imbalanced. With ~30 covariates and modest samples some marginal
	// misses are expected; the propensity score itself must always
	// balance, and no confounder may be severely imbalanced
	// (|standardized difference| >= 2).
	maxImbalancedFrac = 0.34
	// caliperSD is the maximum allowed propensity-score distance within
	// a matched pair, in pooled-score standard deviations (Rosenbaum &
	// Rubin's standard caliper).
	caliperSD = 0.2
	// maxReuse bounds how many treated cases may share one untreated
	// case when matching with replacement. Unbounded reuse lets a
	// handful of untreated cases stand in for the whole treated group,
	// collapsing the matched-set variance and voiding the balance
	// diagnostics; a small cap keeps replacement's benefit (better
	// pairings than one-shot matching) without the degeneracy.
	maxReuse = 4
)

// MatchMethod selects the pairing method.
type MatchMethod int

// Matching methods.
const (
	MatchPropensity MatchMethod = iota
	MatchExact
	MatchMahalanobis
)

// String returns the method name.
func (m MatchMethod) String() string {
	switch m {
	case MatchPropensity:
		return "propensity"
	case MatchExact:
		return "exact"
	case MatchMahalanobis:
		return "mahalanobis"
	default:
		return "unknown"
	}
}

// DefaultConfig returns the paper's settings for the given confounder
// set: propensity-score matching.
func DefaultConfig(confounders []string) Config {
	return Config{Confounders: confounders, Matching: MatchPropensity}
}

// BalanceStat summarizes match quality for one variable (a confounder or
// the propensity score itself): Stuart's thresholds require
// |StdMeanDiff| < 0.25 and VarianceRatio within [0.5, 2].
type BalanceStat struct {
	Name        string
	StdMeanDiff float64
	VarRatio    float64
}

// OK reports whether the variable meets both balance thresholds.
func (b BalanceStat) OK() bool {
	return math.Abs(b.StdMeanDiff) < 0.25 && b.VarRatio >= 0.5 && b.VarRatio <= 2
}

// PointResult is the outcome of one comparison point (bin b vs bin b+1).
type PointResult struct {
	Comparison     string // e.g. "1:2" (1-based, as in the paper's tables)
	UntreatedCases int    // cases in the lower bin
	TreatedCases   int    // cases in the upper bin
	Pairs          int    // matched pairs (with replacement)
	UntreatedUsed  int    // distinct untreated cases matched
	// Balance diagnostics.
	PropensityBalance BalanceStat
	// ConfounderBalance holds the balance statistic of every confounder
	// over the matched pairs, in confounder order.
	ConfounderBalance []BalanceStat
	Imbalanced        []string // confounders failing the thresholds
	Balanced          bool
	// Sign-test outcome distribution and significance (paper Table 6).
	FewerTickets int
	NoEffect     int
	MoreTickets  int
	PValue       float64
	Causal       bool
	// SensitivityGamma is the largest Rosenbaum hidden-bias magnitude at
	// which a causal conclusion survives (1 when the point is not
	// significant to begin with; capped at 10).
	SensitivityGamma float64
	// Skipped marks comparison points with too few cases to attempt.
	Skipped bool
}

// Result is a full causal analysis for one treatment practice.
type Result struct {
	Treatment string
	Points    []PointResult
}

// Run performs the matched-design analysis of one treatment practice over
// the dataset.
func Run(d *dataset.Dataset, treatment string, cfg Config) (*Result, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("qed: empty dataset")
	}
	// Confounder matrix and outcome vector, in case order.
	conf := make([][]float64, d.Len())
	for i := range conf {
		row := make([]float64, 0, len(cfg.Confounders))
		for _, name := range cfg.Confounders {
			if name == treatment {
				continue // never control for the treatment itself
			}
			row = append(row, d.Cases[i].Metrics[name])
		}
		conf[i] = row
	}
	outcome := d.TicketValues()

	// Bin the treatment metric (5/95-percentile-anchored equal width).
	binned, _ := stats.BinValues(d.Values(treatment), bins)
	byBin := make([][]int, bins)
	for i, b := range binned {
		byBin[b] = append(byBin[b], i)
	}

	// Confounder names aligned with the matrix columns.
	var confNames []string
	for _, name := range cfg.Confounders {
		if name != treatment {
			confNames = append(confNames, name)
		}
	}

	sp := cfg.Obs.Start("causal")
	defer sp.End()
	res := &Result{Treatment: treatment}
	for b := 0; b+1 < bins; b++ {
		comparison := fmt.Sprintf("%d:%d", b+1, b+2)
		psp := sp.Start(comparison)
		point := comparePoint(byBin[b], byBin[b+1], conf, confNames, outcome, cfg, psp)
		point.Comparison = comparison
		psp.End()
		res.Points = append(res.Points, point)

		sp.Count("points", 1)
		sp.Count("pairs", float64(point.Pairs))
		if point.Skipped {
			sp.Count("points_skipped", 1)
		} else if !point.Balanced {
			sp.Count("balance_rejections", 1)
			obs.GetCounter("qed.balance_rejections").Add(1)
		}
		sp.Count("fit_iterations", psp.Counter("fit_iterations"))
		obs.GetCounter("qed.pairs_matched").Add(int64(point.Pairs))
	}
	obs.Logger().Debug("causal analysis complete", "treatment", treatment,
		"points", len(res.Points), "pairs", int(sp.Counter("pairs")))
	return res, nil
}

// comparePoint runs one untreated-vs-treated comparison.
func comparePoint(untreated, treated []int, conf [][]float64, confNames []string, outcome []float64, cfg Config, sp *obs.Span) PointResult {
	pr := PointResult{
		UntreatedCases: len(untreated),
		TreatedCases:   len(treated),
	}
	if len(untreated) < minCases || len(treated) < minCases {
		pr.Skipped = true
		pr.PValue = 1
		return pr
	}

	var pairs []pair
	switch cfg.Matching {
	case MatchExact:
		pairs = matchExact(untreated, treated, conf)
	case MatchMahalanobis:
		pairs = matchMahalanobis(untreated, treated, conf)
	default:
		pairs = matchPropensity(untreated, treated, conf, sp)
	}
	sp.Count("pairs", float64(len(pairs)))
	pr.Pairs = len(pairs)
	if len(pairs) == 0 {
		pr.Skipped = true
		pr.PValue = 1
		return pr
	}
	used := map[int]bool{}
	for _, p := range pairs {
		used[p.untreated] = true
	}
	pr.UntreatedUsed = len(used)

	// Balance verification over propensity scores and every confounder.
	pr.PropensityBalance = propensityBalance(pairs)
	if len(conf) > 0 {
		tVals := make([]float64, len(pairs))
		uVals := make([]float64, len(pairs))
		for j := 0; j < len(conf[0]); j++ {
			for k, p := range pairs {
				tVals[k] = conf[p.treated][j]
				uVals[k] = conf[p.untreated][j]
			}
			name := fmt.Sprintf("confounder%d", j)
			if j < len(confNames) {
				name = confNames[j]
			}
			b := BalanceStat{
				Name:        name,
				StdMeanDiff: stats.StdMeanDiff(tVals, uVals),
				VarRatio:    stats.VarianceRatio(tVals, uVals),
			}
			pr.ConfounderBalance = append(pr.ConfounderBalance, b)
			if !b.OK() {
				pr.Imbalanced = append(pr.Imbalanced, b.Name)
			}
		}
	}
	severe := false
	for _, b := range pr.ConfounderBalance {
		if math.Abs(b.StdMeanDiff) >= 2 {
			severe = true
		}
	}
	maxImbal := int(maxImbalancedFrac * float64(len(pr.ConfounderBalance)))
	pr.Balanced = pr.PropensityBalance.OK() && !severe && len(pr.Imbalanced) <= maxImbal

	// Outcome analysis: sign test over matched-pair ticket differences.
	diffs := make([]float64, len(pairs))
	for k, p := range pairs {
		diffs[k] = outcome[p.treated] - outcome[p.untreated]
	}
	st := hypothesis.SignTest(diffs)
	pr.MoreTickets = st.Positive
	pr.FewerTickets = st.Negative
	pr.NoEffect = st.Ties
	pr.PValue = st.PValue
	pr.Causal = pr.Balanced && st.SignificantAt(alpha)
	pr.SensitivityGamma = SensitivityGamma(st.Positive, st.Negative, alpha, 10)
	return pr
}

// pair is one matched treated/untreated case pair; the scores hold the
// propensity scores when propensity matching was used.
type pair struct {
	treated, untreated int
	scoreT, scoreU     float64
}

// propensityBalance computes the balance statistic over the matched
// propensity scores.
func propensityBalance(pairs []pair) BalanceStat {
	tVals := make([]float64, len(pairs))
	uVals := make([]float64, len(pairs))
	for k, p := range pairs {
		tVals[k] = p.scoreT
		uVals[k] = p.scoreU
	}
	return BalanceStat{
		Name:        "propensity",
		StdMeanDiff: stats.StdMeanDiff(tVals, uVals),
		VarRatio:    stats.VarianceRatio(tVals, uVals),
	}
}

// matchPropensity implements the paper's method: a logistic regression of
// treatment assignment on the confounders yields each case's propensity
// score; treated cases outside the untreated score range (and vice versa)
// are discarded (common support); each remaining treated case pairs with
// the untreated case of nearest score, with replacement (each untreated
// case at most maxReuse times), within the caliper.
func matchPropensity(untreated, treated []int, conf [][]float64, sp *obs.Span) []pair {
	// Train on the union: label 1 = treated.
	var X [][]float64
	var y []int
	for _, i := range untreated {
		X = append(X, conf[i])
		y = append(y, 0)
	}
	for _, i := range treated {
		X = append(X, conf[i])
		y = append(y, 1)
	}
	model := ml.TrainLogReg(X, y)
	sp.Count("fit_iterations", float64(model.Iterations()))
	obs.GetCounter("qed.fit_iterations").Add(int64(model.Iterations()))
	scoreOf := func(i int) float64 { return model.Prob(conf[i]) }

	type scored struct {
		idx   int
		score float64
	}
	us := make([]scored, len(untreated))
	for k, i := range untreated {
		us[k] = scored{i, scoreOf(i)}
	}
	sort.Slice(us, func(a, b int) bool { return us[a].score < us[b].score })
	uMin, uMax := us[0].score, us[len(us)-1].score

	ts := make([]scored, 0, len(treated))
	var tMin, tMax float64
	for k, i := range treated {
		s := scoreOf(i)
		if k == 0 || s < tMin {
			tMin = s
		}
		if k == 0 || s > tMax {
			tMax = s
		}
		ts = append(ts, scored{i, s})
	}

	// Caliper: reject pairs whose scores differ by more than caliperSD
	// standard deviations of the pooled score distribution, so poor
	// nearest neighbors do not contaminate the outcome analysis.
	var all []float64
	for _, s := range us {
		all = append(all, s.score)
	}
	for _, s := range ts {
		all = append(all, s.score)
	}
	caliper := caliperSD * stats.StdDev(all)
	if caliper <= 0 {
		caliper = math.Inf(1) // degenerate scores: no caliper
	}

	var pairs []pair
	uses := make([]int, len(us))
	usable := func(k int) bool {
		if k < 0 || k >= len(us) {
			return false
		}
		if us[k].score < tMin || us[k].score > tMax {
			return false
		}
		return uses[k] < maxReuse
	}
	for seq, t := range ts {
		// Common support: discard treated cases whose score falls outside
		// the untreated range, and untreated candidates outside the
		// treated range.
		if t.score < uMin || t.score > uMax {
			continue
		}
		// Binary search the nearest untreated score, then scan outward
		// past exhausted (reuse-capped) or out-of-support candidates.
		k := sort.Search(len(us), func(a int) bool { return us[a].score >= t.score })
		lo, hi := k-1, k
		best := -1
		bestDiff := math.Inf(1)
		for best < 0 && (lo >= 0 || hi < len(us)) {
			if usable(lo) {
				best, bestDiff = lo, math.Abs(us[lo].score-t.score)
			}
			if usable(hi) {
				if d := math.Abs(us[hi].score - t.score); d < bestDiff {
					best, bestDiff = hi, d
				}
			}
			if best >= 0 {
				break
			}
			lo--
			hi++
		}
		if best < 0 || bestDiff > caliper {
			continue
		}
		// Ties are common when confounders are discrete: many untreated
		// cases share the nearest score. Spread matches uniformly across
		// the tied candidates instead of reusing one case (whose private
		// outcome noise would otherwise correlate every pair).
		const eps = 1e-12
		tlo, thi := best, best
		for usable(tlo-1) && math.Abs(us[tlo-1].score-t.score) <= bestDiff+eps {
			tlo--
		}
		for usable(thi+1) && math.Abs(us[thi+1].score-t.score) <= bestDiff+eps {
			thi++
		}
		pickIdx := tlo + seq%(thi-tlo+1)
		// The modular pick may hit an exhausted candidate; walk forward
		// within the tie range to the first usable one.
		for !usable(pickIdx) {
			pickIdx++
			if pickIdx > thi {
				pickIdx = tlo
			}
		}
		pick := us[pickIdx]
		uses[pickIdx]++
		pairs = append(pairs, pair{
			treated: t.idx, untreated: pick.idx,
			scoreT: t.score, scoreU: pick.score,
		})
	}
	return pairs
}

// matchExact pairs a treated case with an untreated case only when every
// confounder value is identical — the paper's illustration of why exact
// matching fails here (at most 17 pairs out of ~11K cases).
func matchExact(untreated, treated []int, conf [][]float64) []pair {
	key := func(i int) string {
		return fmt.Sprint(conf[i])
	}
	byKey := map[string][]int{}
	for _, i := range untreated {
		byKey[key(i)] = append(byKey[key(i)], i)
	}
	var pairs []pair
	for _, t := range treated {
		if matches := byKey[key(t)]; len(matches) > 0 {
			pairs = append(pairs, pair{treated: t, untreated: matches[0]})
		}
	}
	return pairs
}

// matchMahalanobis pairs each treated case with the untreated case of
// minimal Mahalanobis distance over the confounders (diagonal covariance
// approximation: standardized Euclidean distance, the common practical
// simplification when the confounder count is large relative to cases).
func matchMahalanobis(untreated, treated []int, conf [][]float64) []pair {
	if len(conf) == 0 || len(conf[0]) == 0 {
		return nil
	}
	d := len(conf[0])
	// Per-dimension variance over all cases in either group.
	all := append(append([]int{}, untreated...), treated...)
	variance := make([]float64, d)
	for j := 0; j < d; j++ {
		vals := make([]float64, len(all))
		for k, i := range all {
			vals[k] = conf[i][j]
		}
		variance[j] = stats.Variance(vals)
		if variance[j] == 0 {
			variance[j] = 1
		}
	}
	dist := func(a, b int) float64 {
		var total float64
		for j := 0; j < d; j++ {
			diff := conf[a][j] - conf[b][j]
			total += diff * diff / variance[j]
		}
		return total
	}
	var pairs []pair
	for _, t := range treated {
		best, bestD := -1, math.Inf(1)
		for _, u := range untreated {
			if dd := dist(t, u); dd < bestD {
				best, bestD = u, dd
			}
		}
		if best >= 0 {
			pairs = append(pairs, pair{treated: t, untreated: best})
		}
	}
	return pairs
}
