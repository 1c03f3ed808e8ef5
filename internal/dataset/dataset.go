// Package dataset assembles MPA's analysis matrix: one case per network
// per month (paper §5.1.1), carrying the 28 practice-metric values and the
// health outcome (non-maintenance ticket count). It provides the paper's
// health-class labelings, percentile-bounded binning glue, and the
// month-based splits online prediction uses (§6.2).
package dataset

import (
	"fmt"
	"sort"

	"mpa/internal/months"
	"mpa/internal/obs"
	"mpa/internal/practices"
	"mpa/internal/stats"
	"mpa/internal/ticketing"
)

// Case is one network-month observation.
type Case struct {
	Network string
	Month   months.Month
	Metrics practices.Metrics
	Tickets int // non-maintenance tickets opened in the month
}

// Health-class boundaries (paper §6.1).
const (
	// HealthyMaxTickets is the 2-class boundary: networks with at most
	// this many tickets in a month are healthy.
	HealthyMaxTickets = 1
)

// Class2 returns the 2-class label: 0 = healthy (<=1 ticket),
// 1 = unhealthy.
func Class2(tickets int) int {
	if tickets <= HealthyMaxTickets {
		return 0
	}
	return 1
}

// Class5 returns the 5-class label: 0 = excellent (<=2), 1 = good (3-5),
// 2 = moderate (6-8), 3 = poor (9-11), 4 = very poor (>=12).
func Class5(tickets int) int {
	switch {
	case tickets <= 2:
		return 0
	case tickets <= 5:
		return 1
	case tickets <= 8:
		return 2
	case tickets <= 11:
		return 3
	default:
		return 4
	}
}

// Class5Names are the paper's 5-class health names in label order.
var Class5Names = []string{"Excellent", "Good", "Moderate", "Poor", "Very Poor"}

// Class2Names are the 2-class health names in label order.
var Class2Names = []string{"Healthy", "Unhealthy"}

// Dataset is the case matrix.
type Dataset struct {
	Cases []Case
}

// Build assembles the dataset from inference output and the ticket log.
func Build(analysis map[string][]practices.MonthAnalysis, log *ticketing.Log) *Dataset {
	return BuildObs(analysis, log, nil)
}

// BuildObs is Build under a "dataset.build" span recording case and
// network counts. A nil parent skips the span but keeps the counters.
func BuildObs(analysis map[string][]practices.MonthAnalysis, log *ticketing.Log, parent *obs.Span) *Dataset {
	sp := parent.Start("dataset.build")
	defer sp.End()
	// Deterministic case order: by network name, then month.
	names := make([]string, 0, len(analysis))
	for name := range analysis {
		names = append(names, name)
	}
	sort.Strings(names)
	tickets := log.HealthCounts()
	d := &Dataset{}
	for _, name := range names {
		for _, ma := range analysis[name] {
			d.Cases = append(d.Cases, Case{
				Network: name,
				Month:   ma.Month,
				Metrics: ma.Metrics,
				Tickets: tickets[ticketing.NetworkMonth{Network: name, Month: ma.Month}],
			})
		}
	}
	sp.Count("cases", float64(len(d.Cases)))
	sp.Count("networks", float64(len(names)))
	obs.GetCounter("dataset.cases").Add(int64(len(d.Cases)))
	obs.Logger().Debug("dataset built", "cases", len(d.Cases), "networks", len(names))
	return d
}

// Len returns the number of cases.
func (d *Dataset) Len() int { return len(d.Cases) }

// Values returns the metric's value for every case, in case order.
func (d *Dataset) Values(metric string) []float64 {
	out := make([]float64, len(d.Cases))
	for i, c := range d.Cases {
		out[i] = c.Metrics[metric]
	}
	return out
}

// TicketValues returns each case's ticket count as float64.
func (d *Dataset) TicketValues() []float64 {
	out := make([]float64, len(d.Cases))
	for i, c := range d.Cases {
		out[i] = float64(c.Tickets)
	}
	return out
}

// Labels returns each case's health label at a class count: Class2 for
// 2 classes, Class5 for 5.
func (d *Dataset) Labels(classes int) []int {
	class := Class5
	if classes == 2 {
		class = Class2
	}
	out := make([]int, len(d.Cases))
	for i, c := range d.Cases {
		out[i] = class(c.Tickets)
	}
	return out
}

// Binned holds a discretized view of the dataset: per-metric bin indexes
// plus the binners (for reusing training-time edges on later data).
type Binned struct {
	Metrics map[string][]int
	Binners map[string]*stats.Binner
	// Health is the binned ticket count (same binning strategy), used by
	// the MI analysis where health is a binned variable too.
	Health       []int
	HealthBinner *stats.Binner
}

// Bin discretizes every metric and the health outcome into the given
// number of equal-width bins anchored at the 5th/95th percentiles (paper
// §5.1.1: 10 bins for dependence analysis, 5 for learning).
func (d *Dataset) Bin(bins int) *Binned {
	b := &Binned{
		Metrics: map[string][]int{},
		Binners: map[string]*stats.Binner{},
	}
	for _, metric := range practices.MetricNames {
		vals := d.Values(metric)
		binned, binner := stats.BinValues(vals, bins)
		b.Metrics[metric] = binned
		b.Binners[metric] = binner
	}
	b.Health, b.HealthBinner = stats.BinValues(d.TicketValues(), bins)
	return b
}

// FeatureMatrix returns the binned feature rows in case order, with
// features ordered as practices.MetricNames. Bin the dataset first.
func (b *Binned) FeatureMatrix() [][]int {
	n := len(b.Health)
	rows := make([][]int, n)
	for i := range rows {
		rows[i] = make([]int, len(practices.MetricNames))
		for j, metric := range practices.MetricNames {
			rows[i][j] = b.Metrics[metric][i]
		}
	}
	return rows
}

// BinRow bins one case's metrics with fitted binners — training-time
// edges applied to later data, as prediction requires — in
// practices.MetricNames order.
func BinRow(binners map[string]*stats.Binner, m practices.Metrics) []int {
	row := make([]int, len(practices.MetricNames))
	for j, metric := range practices.MetricNames {
		row[j] = binners[metric].Bin(m[metric])
	}
	return row
}

// FilterMonths returns the sub-dataset whose cases fall within [from, to]
// inclusive.
func (d *Dataset) FilterMonths(from, to months.Month) *Dataset {
	out := &Dataset{}
	for _, c := range d.Cases {
		if c.Month.Before(from) || to.Before(c.Month) {
			continue
		}
		out.Cases = append(out.Cases, c)
	}
	return out
}

// Months returns the sorted distinct months present in the dataset.
func (d *Dataset) Months() []months.Month {
	seen := map[months.Month]bool{}
	for _, c := range d.Cases {
		seen[c.Month] = true
	}
	out := make([]months.Month, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Networks returns the sorted distinct networks present in the dataset.
func (d *Dataset) Networks() []string {
	seen := map[string]bool{}
	for _, c := range d.Cases {
		seen[c.Network] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String summarizes the dataset.
func (d *Dataset) String() string {
	return fmt.Sprintf("dataset{cases: %d, networks: %d, months: %d}",
		d.Len(), len(d.Networks()), len(d.Months()))
}
