package mpa

import (
	"fmt"
	"sort"
	"strings"

	"mpa/internal/dataset"
	"mpa/internal/practices"
	"mpa/internal/report"
	"mpa/internal/stats"
)

// NetworkReport renders a management-plane report card for one network:
// each practice metric's mean value over the study window, its percentile
// within the organization, and the network's monthly health history —
// the per-network view operators use to act on MPA's findings (§5.2.6:
// understanding these relationships aids SLO and staffing decisions).
func (f *Framework) NetworkReport(network string) (string, error) {
	env := f.environment() // one snapshot for the whole report
	mas, ok := env.Analysis[network]
	if !ok {
		return "", fmt.Errorf("mpa: unknown network %q", network)
	}

	// Mean metric values over the window, per network.
	orgMeans := map[string][]float64{}
	netMean := map[string]float64{}
	for name, all := range env.Analysis {
		for _, metric := range practices.MetricNames {
			var sum float64
			for _, ma := range all {
				sum += ma.Metrics[metric]
			}
			mean := sum / float64(len(all))
			orgMeans[metric] = append(orgMeans[metric], mean)
			if name == network {
				netMean[metric] = mean
			}
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Management-plane report card: %s\n", network)
	fmt.Fprintf(&b, "(percentiles are within the organization's %d networks)\n\n", len(env.Analysis))

	tb := report.NewTable("Practice", "Cat", "Mean value", "Org percentile")
	type row struct {
		metric string
		pct    float64
	}
	var rows []row
	for _, metric := range practices.MetricNames {
		rows = append(rows, row{metric, 100 * stats.CDFAt(orgMeans[metric], netMean[metric])})
	}
	// Highest-percentile practices first: the outliers operators should
	// look at.
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].pct > rows[j].pct })
	for _, r := range rows {
		cat := "D"
		if practices.Category(r.metric) == "operational" {
			cat = "O"
		}
		tb.AddRow(practices.DisplayName(r.metric), cat,
			report.F(netMean[r.metric]), fmt.Sprintf("p%.0f", r.pct))
	}
	b.WriteString(tb.String())

	// Health history.
	b.WriteString("\nMonthly health (tickets, class):\n")
	for _, ma := range mas {
		c, ok := env.Case(network, ma.Month)
		if !ok {
			return "", fmt.Errorf("mpa: no case for network %q in %s", network, ma.Month)
		}
		tickets := c.Tickets
		cls := FiveClass.ClassNames()[dataset.Class5(tickets)]
		fmt.Fprintf(&b, "  %s  %3d tickets  %s\n", ma.Month, tickets, cls)
	}
	return b.String(), nil
}
