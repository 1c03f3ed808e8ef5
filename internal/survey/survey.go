// Package survey encodes the operator survey of paper §3.1 (Figure 2): 51
// network operators — 45 recruited via the NANOG mailing list, 4 from a
// campus network, 2 from the large OSP — rated how much each of ten (plus
// one written-in) management practices matters to their networks' health.
//
// The per-practice histograms are reconstructed from Figure 2 and the
// paper's narrative: a clear consensus exists only for number of change
// events (high impact); network size, number of models, and inter-device
// complexity split roughly evenly between low and high; middlebox-change
// fraction is widely believed high impact (which §5.1.2 contradicts);
// ACL-change fraction is mostly rated low impact (which §5.2.6
// contradicts); a handful of operators answered unsure throughout.
package survey

import "mpa/internal/practices"

// Opinion is one survey answer category.
type Opinion int

// Survey answer categories, in Figure 2's order.
const (
	NoImpact Opinion = iota
	LowImpact
	MediumImpact
	HighImpact
	NotSure
	numOpinions
)

// NumOpinions is the number of answer categories.
const NumOpinions = int(numOpinions)

// String returns the category label.
func (o Opinion) String() string {
	switch o {
	case NoImpact:
		return "No impact"
	case LowImpact:
		return "Low impact"
	case MediumImpact:
		return "Medium impact"
	case HighImpact:
		return "High impact"
	case NotSure:
		return "Not sure"
	default:
		return "unknown"
	}
}

// Respondents is the number of surveyed operators.
const Respondents = 51

// PracticeOpinion is the response histogram for one surveyed practice.
type PracticeOpinion struct {
	// Practice is the Figure 2 label.
	Practice string
	// Metric is the corresponding practice-metric name, or "" when the
	// surveyed practice has no single metric (e.g. "No. of protocols"
	// spans L2 and L3 counts).
	Metric string
	// Counts holds responses per Opinion, summing to Respondents.
	Counts [NumOpinions]int
}

// MajorityOpinion returns the most frequent answer.
func (p PracticeOpinion) MajorityOpinion() Opinion {
	best := NoImpact
	for o := Opinion(1); o < numOpinions; o++ {
		if p.Counts[o] > p.Counts[best] {
			best = o
		}
	}
	return best
}

// Results returns the Figure 2 dataset.
func Results() []PracticeOpinion {
	return []PracticeOpinion{
		{
			Practice: "No. of devices",
			Metric:   practices.MetricDevices,
			Counts:   [NumOpinions]int{4, 15, 12, 16, 4},
		},
		{
			Practice: "No. of models",
			Metric:   practices.MetricModels,
			Counts:   [NumOpinions]int{5, 16, 10, 15, 5},
		},
		{
			Practice: "No. of firmware versions",
			Metric:   practices.MetricFirmwareVersions,
			Counts:   [NumOpinions]int{3, 12, 16, 17, 3},
		},
		{
			Practice: "No. of protocols",
			Metric:   "", // spans no_l2_protocols and no_l3_protocols
			Counts:   [NumOpinions]int{4, 14, 15, 14, 4},
		},
		{
			Practice: "Inter-device complexity",
			Metric:   practices.MetricInterComplexity,
			Counts:   [NumOpinions]int{2, 16, 12, 17, 4},
		},
		{
			Practice: "No. of change events",
			Metric:   practices.MetricChangeEvents,
			Counts:   [NumOpinions]int{1, 5, 13, 30, 2},
		},
		{
			Practice: "Avg. devices changed/event",
			Metric:   practices.MetricDevicesPerEvent,
			Counts:   [NumOpinions]int{3, 13, 17, 14, 4},
		},
		{
			Practice: "Frac. events w/ mbox change",
			Metric:   practices.MetricFracEventsMbox,
			Counts:   [NumOpinions]int{2, 10, 15, 21, 3},
		},
		{
			Practice: "Frac. events automated",
			Metric:   practices.MetricFracEventsAuto,
			Counts:   [NumOpinions]int{4, 14, 14, 13, 6},
		},
		{
			Practice: "Frac. events w/ router change",
			Metric:   practices.MetricFracEventsRtr,
			Counts:   [NumOpinions]int{2, 12, 16, 18, 3},
		},
		{
			Practice: "Frac. events w/ ACL change",
			Metric:   practices.MetricFracEventsACL,
			Counts:   [NumOpinions]int{4, 22, 13, 9, 3},
		},
	}
}

// ByMetric returns the survey entry for a practice metric, if surveyed.
func ByMetric(metric string) (PracticeOpinion, bool) {
	for _, p := range Results() {
		if p.Metric == metric && metric != "" {
			return p, true
		}
	}
	return PracticeOpinion{}, false
}
