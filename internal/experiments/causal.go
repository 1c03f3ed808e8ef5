package experiments

import (
	"fmt"
	"strings"

	"mpa/internal/par"
	"mpa/internal/practices"
	"mpa/internal/qed"
	"mpa/internal/report"
	"mpa/internal/survey"
)

// causalConfig returns the paper's QED configuration (§5.2), recording
// into env's observability tree: all 28 practice metrics as confounders
// (the treatment is excluded inside qed.Run), propensity-score matching,
// 5 treatment bins, alpha 0.001.
func causalConfig(env *Env) qed.Config {
	cfg := qed.DefaultConfig(practices.MetricNames)
	cfg.Obs = env.Obs
	return cfg
}

// Causal runs the paper's matched-design quasi-experiment for one
// treatment practice, controlling for the other practice metrics. The
// result is memoized on env under "causal/<treatment>", so the causal
// reports and the framework's causal query share one run per treatment.
func Causal(env *Env, treatment string) (*qed.Result, error) {
	return Memoized(env, "", "causal/"+treatment, func() (*qed.Result, error) {
		return qed.Run(env.Data, treatment, causalConfig(env))
	})
}

// mustCausal is Causal for the reports: their dataset is non-empty by
// construction, so an error is a programming bug, not a data condition.
func mustCausal(env *Env, treatment string) *qed.Result {
	res, err := Causal(env, treatment)
	if err != nil {
		panic(fmt.Sprintf("experiments: causal analysis of %s failed: %v", treatment, err))
	}
	return res
}

// Table5 reports propensity-score matching quality for number of change
// events across the four comparison points (paper Table 5).
func Table5(env *Env) Report {
	res := mustCausal(env, practices.MetricChangeEvents)
	tb := report.NewTable("Comp. point", "Untreated", "Treated", "Pairs",
		"Untreated matched", "|Std diff means|", "Ratio of var")
	numbers := map[string]float64{}
	for _, p := range res.Points {
		absDiff := p.PropensityBalance.StdMeanDiff
		if absDiff < 0 {
			absDiff = -absDiff
		}
		tb.AddRow(p.Comparison,
			fmt.Sprint(p.UntreatedCases), fmt.Sprint(p.TreatedCases),
			fmt.Sprint(p.Pairs), fmt.Sprint(p.UntreatedUsed),
			fmt.Sprintf("%.4f", absDiff), fmt.Sprintf("%.4f", p.PropensityBalance.VarRatio))
		numbers["pairs:"+p.Comparison] = float64(p.Pairs)
		numbers["treated:"+p.Comparison] = float64(p.TreatedCases)
		numbers["untreated_matched:"+p.Comparison] = float64(p.UntreatedUsed)
		numbers["ps_diff:"+p.Comparison] = absDiff
		numbers["ps_var:"+p.Comparison] = p.PropensityBalance.VarRatio
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nMatching with replacement: distinct untreated cases matched is below pairs.\n")
	return Report{
		ID:      "table5",
		Title:   "Table 5: matching based on propensity scores (no. of change events)",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// Table6 reports the sign-test outcome distribution for number of change
// events (paper Table 6).
func Table6(env *Env) Report {
	res := mustCausal(env, practices.MetricChangeEvents)
	tb := report.NewTable("Comp. point", "Fewer tickets", "No effect", "More tickets",
		"p-value", "Causal", "Rosenbaum gamma")
	numbers := map[string]float64{}
	for _, p := range res.Points {
		causal := ""
		if p.Causal {
			causal = "yes"
		}
		tb.AddRow(p.Comparison, fmt.Sprint(p.FewerTickets), fmt.Sprint(p.NoEffect),
			fmt.Sprint(p.MoreTickets), report.P(p.PValue), causal,
			report.F(p.SensitivityGamma))
		numbers["p:"+p.Comparison] = p.PValue
		numbers["more:"+p.Comparison] = float64(p.MoreTickets)
		numbers["fewer:"+p.Comparison] = float64(p.FewerTickets)
		numbers["gamma:"+p.Comparison] = p.SensitivityGamma
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nRosenbaum gamma: the hidden-bias magnitude a conclusion survives (1 = fragile).\n")
	return Report{
		ID:      "table6",
		Title:   "Table 6: statistical significance of outcomes (no. of change events)",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// top10Metrics returns the 10 practices with the strongest MI dependence.
func top10Metrics(env *Env) []string {
	out := make([]string, 10)
	for i, e := range MIRanking(env)[:10] {
		out[i] = e.Metric
	}
	return out
}

// top10Causal returns top10Metrics and their causal analyses, in rank
// order. Each treatment is one job on up to par.Workers goroutines; on a
// memoized Env the memo's single flight still runs each treatment once
// however many reports ask.
func top10Causal(env *Env) ([]string, []*qed.Result) {
	metrics := top10Metrics(env)
	results, err := par.Map(metrics, func(_ int, metric string) (*qed.Result, error) {
		res, err := Causal(env, metric)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", metric, err)
		}
		return res, nil
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: causal analysis of %v", err))
	}
	return metrics, results
}

// Table7 runs the causal analysis at the 1:2 comparison point for the ten
// practices with the highest MI (paper Table 7), annotated with the
// survey's majority opinion where available.
func Table7(env *Env) Report {
	tb := report.NewTable("Treatment practice", "p-value (1:2)", "Causal", "Survey majority")
	numbers := map[string]float64{}
	causalCount := 0
	metrics, results := top10Causal(env)
	for i, metric := range metrics {
		p := results[i].Points[0] // 1:2
		causal := ""
		if p.Causal {
			causal = "yes"
			causalCount++
		}
		opinion := "-"
		if s, ok := survey.ByMetric(metric); ok {
			opinion = s.MajorityOpinion().String()
		}
		tb.AddRow(practices.DisplayName(metric), report.P(p.PValue), causal, opinion)
		numbers["p:"+metric] = p.PValue
		if p.Causal {
			numbers["causal:"+metric] = 1
		} else {
			numbers["causal:"+metric] = 0
		}
	}
	numbers["causal_count"] = float64(causalCount)
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\n%d of 10 practices show a causal relationship at the 1:2 point (paper: 8).\n", causalCount)
	return Report{
		ID:      "table7",
		Title:   "Table 7: causal analysis at the 1:2 comparison point, top 10 MI practices",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// Table8 runs the upper-bin comparison points (2:3, 3:4, 4:5) for the top
// 10 practices, marking imbalanced matchings (paper Table 8).
func Table8(env *Env) Report {
	tb := report.NewTable("Treatment practice", "2:3", "3:4", "4:5")
	numbers := map[string]float64{}
	imbalanced, total := 0, 0
	metrics, results := top10Causal(env)
	for i, metric := range metrics {
		cells := []string{practices.DisplayName(metric)}
		for _, p := range results[i].Points[1:] {
			total++
			switch {
			case p.Skipped:
				cells = append(cells, "Insuf.")
				imbalanced++
			case !p.Balanced:
				cells = append(cells, "Imbal.")
				imbalanced++
			default:
				cell := report.P(p.PValue)
				if p.Causal {
					cell += " *"
				}
				cells = append(cells, cell)
			}
			numbers[fmt.Sprintf("p:%s:%s", metric, p.Comparison)] = p.PValue
		}
		tb.AddRow(cells...)
	}
	numbers["imbalanced_frac"] = float64(imbalanced) / float64(total)
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\n* significant at alpha=0.001. %.0f%% of upper-bin matchings are imbalanced\n",
		100*float64(imbalanced)/float64(total))
	b.WriteString("or insufficient — practice metrics are heavy-tailed, so upper bins are sparse\n")
	b.WriteString("(paper: over one-third imbalanced).\n")
	return Report{
		ID:      "table8",
		Title:   "Table 8: causal analysis at upper comparison points, top 10 MI practices",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// AblationMatching compares the paper's propensity matching against exact
// and Mahalanobis matching on the change-events treatment — the §5.2.3
// motivation for propensity scores (exact matching starves).
func AblationMatching(env *Env) Report {
	tb := report.NewTable("Method", "Pairs (1:2)", "Pairs (total)")
	numbers := map[string]float64{}
	for _, method := range []qed.MatchMethod{qed.MatchPropensity, qed.MatchExact, qed.MatchMahalanobis} {
		var res *qed.Result
		if method == qed.MatchPropensity {
			res = mustCausal(env, practices.MetricChangeEvents) // Tables 5 and 6's run
		} else {
			cfg := causalConfig(env)
			cfg.Matching = method
			var err error
			if res, err = qed.Run(env.Data, practices.MetricChangeEvents, cfg); err != nil {
				panic(err)
			}
		}
		total := 0
		for _, p := range res.Points {
			total += p.Pairs
		}
		tb.AddRow(method.String(), fmt.Sprint(res.Points[0].Pairs), fmt.Sprint(total))
		numbers["pairs:"+method.String()] = float64(total)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nExact matching on all confounders yields almost no pairs (paper: <=17 of ~11K);\n")
	b.WriteString("propensity scores reduce the confounder space to one dimension.\n")
	return Report{
		ID:      "ablation-matching",
		Title:   "Ablation: pairing method (propensity vs exact vs Mahalanobis)",
		Text:    b.String(),
		Numbers: numbers,
	}
}
