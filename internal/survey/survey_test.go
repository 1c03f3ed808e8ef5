package survey

import (
	"testing"

	"mpa/internal/practices"
)

func TestAllHistogramsSumToRespondents(t *testing.T) {
	for _, p := range Results() {
		got := 0
		for _, c := range p.Counts {
			got += c
		}
		if got != Respondents {
			t.Errorf("%s: responses sum to %d, want %d", p.Practice, got, Respondents)
		}
	}
}

func TestElevenPractices(t *testing.T) {
	if got := len(Results()); got != 11 {
		t.Fatalf("survey covers %d practices, want 11 (Figure 2)", got)
	}
}

func TestChangeEventsConsensus(t *testing.T) {
	// The paper: clear consensus in just one case — number of change
	// events, rated high impact.
	consensusCount := 0
	for _, p := range Results() {
		if p.Counts[HighImpact] > Respondents/2 {
			consensusCount++
			if p.Metric != practices.MetricChangeEvents {
				t.Errorf("unexpected consensus practice: %s", p.Practice)
			}
		}
	}
	if consensusCount != 1 {
		t.Errorf("found %d consensus practices, want exactly 1", consensusCount)
	}
}

func TestDiversityNarrative(t *testing.T) {
	// Network size, models, and inter-device complexity split roughly
	// evenly between low and high impact: the two answer counts are
	// within 3 responses of each other.
	for _, metric := range []string{
		practices.MetricDevices, practices.MetricModels, practices.MetricInterComplexity,
	} {
		p, ok := ByMetric(metric)
		if !ok {
			t.Fatalf("metric %s not surveyed", metric)
		}
		if diff := p.Counts[HighImpact] - p.Counts[LowImpact]; diff < -3 || diff > 3 {
			t.Errorf("%s: low=%d high=%d, expected a rough split",
				p.Practice, p.Counts[LowImpact], p.Counts[HighImpact])
		}
	}
}

func TestACLMajorityLow(t *testing.T) {
	p, ok := ByMetric(practices.MetricFracEventsACL)
	if !ok {
		t.Fatal("ACL practice not surveyed")
	}
	if p.MajorityOpinion() != LowImpact {
		t.Errorf("ACL majority = %v, want low (the opinion §5.2.6 contradicts)", p.MajorityOpinion())
	}
}

func TestMboxMajorityHigh(t *testing.T) {
	p, ok := ByMetric(practices.MetricFracEventsMbox)
	if !ok {
		t.Fatal("mbox practice not surveyed")
	}
	if p.MajorityOpinion() != HighImpact {
		t.Errorf("mbox majority = %v, want high (the opinion §5.1.2 contradicts)", p.MajorityOpinion())
	}
}

func TestUnsureAnswersExist(t *testing.T) {
	// A handful of operators indicated they are unsure.
	total := 0
	for _, p := range Results() {
		total += p.Counts[NotSure]
	}
	if total == 0 {
		t.Error("no unsure answers recorded")
	}
}

func TestByMetricUnknown(t *testing.T) {
	if _, ok := ByMetric("nonexistent"); ok {
		t.Error("ByMetric found a nonexistent metric")
	}
	if _, ok := ByMetric(""); ok {
		t.Error("ByMetric matched the empty metric")
	}
}

func TestOpinionStrings(t *testing.T) {
	want := []string{"No impact", "Low impact", "Medium impact", "High impact", "Not sure"}
	for o := Opinion(0); o < numOpinions; o++ {
		if o.String() != want[o] {
			t.Errorf("Opinion(%d) = %q", o, o.String())
		}
	}
	if Opinion(99).String() != "unknown" {
		t.Error("unknown opinion label")
	}
}
