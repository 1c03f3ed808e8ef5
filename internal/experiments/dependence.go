package experiments

import (
	"fmt"
	"sort"
	"strings"

	"mpa/internal/dataset"
	"mpa/internal/months"
	"mpa/internal/obs"
	"mpa/internal/practices"
	"mpa/internal/report"
	"mpa/internal/stats"
)

// ticketBoxesByBin renders box summaries of ticket counts grouped by the
// binned value of a practice metric (the visual form of Figures 4 and 6).
func ticketBoxesByBin(env *Env, metric string, bins int) (string, map[int]stats.BoxSummary) {
	binned, binner := stats.BinValues(env.Data.Values(metric), bins)
	tickets := env.Data.TicketValues()
	groups := map[int][]float64{}
	for i, b := range binned {
		groups[b] = append(groups[b], tickets[i])
	}
	var b strings.Builder
	lo, hi := binner.Bounds()
	fmt.Fprintf(&b, "%s (bins anchored at [%s, %s]):\n", practices.DisplayName(metric), report.F(lo), report.F(hi))
	boxes := map[int]stats.BoxSummary{}
	for bin := 0; bin < bins; bin++ {
		vals, ok := groups[bin]
		if !ok {
			continue
		}
		box := stats.Box(vals)
		boxes[bin] = box
		b.WriteString("  " + report.BoxSummary(fmt.Sprintf("bin %d", bin), box) + "\n")
	}
	return b.String(), boxes
}

// monotoneScore returns the fraction of adjacent bin pairs whose mean
// ticket count increases — 1.0 for a strictly increasing relationship.
func monotoneScore(boxes map[int]stats.BoxSummary, bins int) float64 {
	var prev *stats.BoxSummary
	up, total := 0, 0
	for b := 0; b < bins; b++ {
		box, ok := boxes[b]
		if !ok {
			continue
		}
		if prev != nil {
			total++
			if box.Mean >= prev.Mean {
				up++
			}
		}
		boxCopy := box
		prev = &boxCopy
	}
	if total == 0 {
		return 0
	}
	return float64(up) / float64(total)
}

// Figure4 shows tickets against four practices with linear, monotone, and
// non-monotone relationships (paper Figure 4).
func Figure4(env *Env) Report {
	metrics := []string{
		practices.MetricL2Protocols,
		practices.MetricModels,
		practices.MetricFracEventsIface,
		practices.MetricRoles,
	}
	var b strings.Builder
	numbers := map[string]float64{}
	for _, m := range metrics {
		text, boxes := ticketBoxesByBin(env, m, 6)
		b.WriteString(text)
		numbers["monotone:"+m] = monotoneScore(boxes, 6)
	}
	b.WriteString("\nInterface-change fraction is expected to be non-monotone (inverted U).\n")
	return Report{
		ID:      "figure4",
		Title:   "Figure 4: tickets vs management practices (shape diversity)",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// Figure5 shows the relationship between the number of models and the
// number of roles (paper Figure 5): practices are related to each other.
func Figure5(env *Env) Report {
	roles := env.Data.Values(practices.MetricRoles)
	models := env.Data.Values(practices.MetricModels)
	groups := map[int][]float64{}
	for i, r := range roles {
		groups[int(r)] = append(groups[int(r)], models[i])
	}
	keys := make([]int, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString("  " + report.BoxSummary(fmt.Sprintf("%d roles", k), stats.Box(groups[k])) + "\n")
	}
	corr := stats.Pearson(roles, models)
	fmt.Fprintf(&b, "Pearson(roles, models) = %.2f — the confounding the QED must control.\n", corr)
	return Report{
		ID:      "figure5",
		Title:   "Figure 5: number of models vs number of roles",
		Text:    b.String(),
		Numbers: map[string]float64{"roles_models_correlation": corr},
	}
}

// Figure6 shows tickets against the two strongest practices: number of
// devices and number of change events (paper Figure 6).
func Figure6(env *Env) Report {
	var b strings.Builder
	numbers := map[string]float64{}
	for _, m := range []string{practices.MetricDevices, practices.MetricChangeEvents} {
		text, boxes := ticketBoxesByBin(env, m, 8)
		b.WriteString(text)
		numbers["monotone:"+m] = monotoneScore(boxes, 8)
	}
	return Report{
		ID:      "figure6",
		Title:   "Figure 6: tickets vs no. of devices and no. of change events",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// MIRanking returns each practice's average monthly mutual information
// with network health, in decreasing order with equal-MI practices in
// catalogue order: metrics and health are binned into 10
// percentile-anchored bins over all cases, MI is computed per month across
// networks, and the monthly values are averaged (paper §5.1). The ranking
// is memoized on env under "rank"; the slice is shared, so callers must
// not sort or edit it.
func MIRanking(env *Env) []MIEntry {
	r, _ := Memoized(env, "", "rank", func() ([]MIEntry, error) { return miRanking(env), nil })
	return r
}

// monthlyCases returns the dataset binned into 10 percentile-anchored
// bins (§5.1.1) and the case indexes of each window month with at least
// two cases, in window order: the months MI and CMI are averaged over.
func monthlyCases(env *Env) (*dataset.Binned, [][]int) {
	binned := env.Data.Bin(10)
	byMonth := map[months.Month][]int{}
	for i, c := range env.Data.Cases {
		byMonth[c.Month] = append(byMonth[c.Month], i)
	}
	var groups [][]int
	for _, m := range env.Window() {
		if idx := byMonth[m]; len(idx) >= 2 {
			groups = append(groups, idx)
		}
	}
	return binned, groups
}

// pick returns vals at the indexes idx.
func pick(vals, idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = vals[i]
	}
	return out
}

// miRanking computes MIRanking.
func miRanking(env *Env) []MIEntry {
	sp := env.Obs.Start("mi_ranking")
	defer sp.End()
	binned, groups := monthlyCases(env)
	miValues := 0
	entries := make([]MIEntry, 0, len(practices.MetricNames))
	for _, metric := range practices.MetricNames {
		var sum float64
		for _, idx := range groups {
			sum += stats.MutualInformation(pick(binned.Metrics[metric], idx), pick(binned.Health, idx))
		}
		miValues += len(groups)
		avg := 0.0
		if len(groups) > 0 {
			avg = sum / float64(len(groups))
		}
		entries = append(entries, MIEntry{Metric: metric, MI: avg})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].MI > entries[j].MI })
	sp.Count("metrics", float64(len(entries)))
	sp.Count("mi_values", float64(miValues))
	obs.GetCounter("experiments.mi_values").Add(int64(miValues))
	return entries
}

// MIEntry is one practice's dependence score.
type MIEntry struct {
	Metric string
	MI     float64
}

// Table3 ranks the practices by average monthly MI with health and lists
// the top 10 (paper Table 3).
func Table3(env *Env) Report {
	entries := MIRanking(env)
	tb := report.NewTable("Rank", "Management practice", "Cat", "Avg monthly MI")
	numbers := map[string]float64{}
	for i, e := range entries {
		cat := "D"
		if practices.Category(e.Metric) == "operational" {
			cat = "O"
		}
		if i < 10 {
			tb.AddRow(fmt.Sprint(i+1), practices.DisplayName(e.Metric), cat, report.F(e.MI))
		}
		numbers["mi:"+e.Metric] = e.MI
		numbers["rank:"+e.Metric] = float64(i + 1)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	return Report{
		ID:      "table3",
		Title:   "Table 3: top 10 practices by average monthly MI with health",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// Table4 ranks practice pairs by conditional mutual information given
// health and lists the top 10 (paper Table 4).
func Table4(env *Env) Report {
	sp := env.Obs.Start("cmi_ranking")
	defer sp.End()
	binned, groups := monthlyCases(env)
	type pairEntry struct {
		a, b string
		cmi  float64
	}
	var pairs []pairEntry
	names := practices.MetricNames
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			var sum float64
			for _, idx := range groups {
				sum += stats.ConditionalMutualInformation(pick(binned.Metrics[names[i]], idx),
					pick(binned.Metrics[names[j]], idx), pick(binned.Health, idx))
			}
			if len(groups) > 0 {
				pairs = append(pairs, pairEntry{names[i], names[j], sum / float64(len(groups))})
			}
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].cmi > pairs[j].cmi })
	sp.Count("pairs", float64(len(pairs)))
	obs.GetCounter("experiments.cmi_pairs").Add(int64(len(pairs)))

	topSet := map[string]bool{}
	for _, m := range top10Metrics(env) {
		topSet[m] = true
	}
	tb := report.NewTable("Rank", "Practice pair", "CMI")
	numbers := map[string]float64{}
	dependentTop := map[string]bool{}
	for i, p := range pairs {
		if i < 10 {
			mark := func(m string) string {
				d := practices.DisplayName(m)
				if topSet[m] {
					d = "*" + d // in the MI top-10, as the paper highlights
					dependentTop[m] = true
				}
				return d
			}
			tb.AddRow(fmt.Sprint(i+1), mark(p.a)+" / "+mark(p.b), report.F(p.cmi))
			numbers[fmt.Sprintf("cmi:%s|%s", p.a, p.b)] = p.cmi
		}
	}
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\n* practice is in the MI top-10; %d of the top-10 health-related practices\n", len(dependentTop))
	b.WriteString("  are statistically dependent with other practices (paper: six).\n")
	numbers["top10_in_pairs"] = float64(len(dependentTop))
	return Report{
		ID:      "table4",
		Title:   "Table 4: top 10 statistically dependent practice pairs by CMI",
		Text:    b.String(),
		Numbers: numbers,
	}
}
