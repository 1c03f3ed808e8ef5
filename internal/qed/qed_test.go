package qed

import (
	"fmt"
	"testing"
	"time"

	"mpa/internal/dataset"
	"mpa/internal/months"
	"mpa/internal/practices"
	"mpa/internal/rng"
)

// synthDataset builds a dataset with a known causal structure:
//
//	Z (confounder)  ~ uniform bins
//	X (treatment)   = Z + noise        (correlated with Z)
//	S (spurious)    = Z + noise        (correlated with Z, no own effect)
//	tickets         = Poisson(0.3 + 0.8*X + 0.5*Z)
//
// X and Z causally drive tickets; S only appears related through Z.
func synthDataset(n int, seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	d := &dataset.Dataset{}
	for i := 0; i < n; i++ {
		z := float64(r.Intn(6))
		x := z + float64(r.Intn(3)) - 1
		if x < 0 {
			x = 0
		}
		s := z + float64(r.Intn(3)) - 1
		if s < 0 {
			s = 0
		}
		lambda := 0.3 + 0.8*x + 0.5*z
		tickets := r.Poisson(lambda)
		m := practices.Metrics{
			"metric_x": x,
			"metric_z": z,
			"metric_s": s,
		}
		d.Cases = append(d.Cases, dataset.Case{
			Network: fmt.Sprintf("n%04d", i),
			Month:   months.Month{Year: 2014, Mon: time.January},
			Metrics: m,
			Tickets: tickets,
		})
	}
	return d
}

func confounders() []string { return []string{"metric_x", "metric_z", "metric_s"} }

func TestCausalTreatmentDetected(t *testing.T) {
	d := synthDataset(4000, 1)
	cfg := DefaultConfig(confounders())
	res, err := Run(d, "metric_x", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("comparison points = %d", len(res.Points))
	}
	// The effect is strong and monotone; at least the first usable
	// comparison point must flag causality.
	found := false
	for _, p := range res.Points {
		if p.Causal {
			found = true
		}
	}
	if !found {
		for _, p := range res.Points {
			t.Logf("%s: pairs=%d p=%.3g balanced=%v imbal=%v skipped=%v",
				p.Comparison, p.Pairs, p.PValue, p.Balanced, p.Imbalanced, p.Skipped)
		}
		t.Fatal("causal treatment not detected at any comparison point")
	}
	// Effect direction: more tickets under treatment.
	for _, p := range res.Points {
		if p.Causal && p.MoreTickets <= p.FewerTickets {
			t.Errorf("%s flagged causal but direction is wrong (+%d/-%d)",
				p.Comparison, p.MoreTickets, p.FewerTickets)
		}
	}
}

func TestSpuriousTreatmentNotDetected(t *testing.T) {
	d := synthDataset(4000, 2)
	cfg := DefaultConfig(confounders())
	res, err := Run(d, "metric_s", cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Causal {
			t.Errorf("spurious treatment flagged causal at %s (p=%.3g)", p.Comparison, p.PValue)
		}
	}
}

func TestExactMatchingStarves(t *testing.T) {
	// With a continuous-ish confounder space, exact matching on all
	// confounders yields dramatically fewer pairs than propensity
	// matching — the paper's §5.2.3 motivation.
	d := synthDataset(2000, 3)
	// Make confounders effectively continuous so exact matches are rare.
	r := rng.New(99)
	for i := range d.Cases {
		d.Cases[i].Metrics["metric_z"] += r.Float64() * 0.01
	}
	prop := DefaultConfig(confounders())
	exact := DefaultConfig(confounders())
	exact.Matching = MatchExact
	rp, err := Run(d, "metric_x", prop)
	if err != nil {
		t.Fatal(err)
	}
	re, err := Run(d, "metric_x", exact)
	if err != nil {
		t.Fatal(err)
	}
	var propPairs, exactPairs int
	for i := range rp.Points {
		propPairs += rp.Points[i].Pairs
		exactPairs += re.Points[i].Pairs
	}
	if exactPairs*10 > propPairs {
		t.Errorf("exact matching found %d pairs vs propensity %d — should starve", exactPairs, propPairs)
	}
}

func TestMahalanobisMatchingWorks(t *testing.T) {
	d := synthDataset(800, 4)
	cfg := DefaultConfig(confounders())
	cfg.Matching = MatchMahalanobis
	res, err := Run(d, "metric_x", cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs := 0
	for _, p := range res.Points {
		pairs += p.Pairs
	}
	if pairs == 0 {
		t.Fatal("Mahalanobis matching produced no pairs")
	}
}

func TestMatchingWithReplacement(t *testing.T) {
	d := synthDataset(3000, 5)
	res, err := Run(d, "metric_x", DefaultConfig(confounders()))
	if err != nil {
		t.Fatal(err)
	}
	// With replacement, distinct untreated cases used <= pairs (paper
	// Table 5 shows strictly fewer).
	for _, p := range res.Points {
		if p.Skipped {
			continue
		}
		if p.UntreatedUsed > p.Pairs {
			t.Errorf("%s: distinct untreated %d > pairs %d", p.Comparison, p.UntreatedUsed, p.Pairs)
		}
	}
}

func TestSkippedOnTinyGroups(t *testing.T) {
	d := synthDataset(30, 6)
	res, err := Run(d, "metric_x", DefaultConfig(confounders()))
	if err != nil {
		t.Fatal(err)
	}
	anySkipped := false
	for _, p := range res.Points {
		if p.Skipped {
			anySkipped = true
			if p.Causal {
				t.Error("skipped point flagged causal")
			}
		}
	}
	if !anySkipped {
		t.Error("tiny dataset produced no skipped points")
	}
}

func TestErrors(t *testing.T) {
	if _, err := Run(&dataset.Dataset{}, "metric_x", DefaultConfig(confounders())); err == nil {
		t.Error("empty dataset should error")
	}
}

func TestBalanceStatOK(t *testing.T) {
	cases := []struct {
		b    BalanceStat
		want bool
	}{
		{BalanceStat{StdMeanDiff: 0, VarRatio: 1}, true},
		{BalanceStat{StdMeanDiff: 0.24, VarRatio: 1.9}, true},
		{BalanceStat{StdMeanDiff: 0.26, VarRatio: 1}, false},
		{BalanceStat{StdMeanDiff: -0.3, VarRatio: 1}, false},
		{BalanceStat{StdMeanDiff: 0, VarRatio: 0.4}, false},
		{BalanceStat{StdMeanDiff: 0, VarRatio: 2.1}, false},
	}
	for i, c := range cases {
		if got := c.b.OK(); got != c.want {
			t.Errorf("case %d: OK = %v", i, got)
		}
	}
}

func TestPropensityBalanceReported(t *testing.T) {
	d := synthDataset(2000, 8)
	res, err := Run(d, "metric_x", DefaultConfig(confounders()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Skipped || p.Pairs == 0 {
			continue
		}
		// Matched propensity scores should be very close: |diff| small.
		if !p.PropensityBalance.OK() {
			t.Errorf("%s: propensity imbalance: %+v", p.Comparison, p.PropensityBalance)
		}
	}
}

func TestMatchMethodString(t *testing.T) {
	if MatchPropensity.String() != "propensity" || MatchExact.String() != "exact" ||
		MatchMahalanobis.String() != "mahalanobis" || MatchMethod(9).String() != "unknown" {
		t.Error("method names wrong")
	}
}

func TestTreatmentExcludedFromConfounders(t *testing.T) {
	// Including the treatment in the confounder list must not break the
	// analysis (it is silently excluded).
	d := synthDataset(1500, 9)
	cfg := DefaultConfig([]string{"metric_x", "metric_z", "metric_s"})
	res, err := Run(d, "metric_x", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
}

func TestSensitivityPValue(t *testing.T) {
	// Gamma = 1 matches the one-sided sign test.
	if p := SensitivityPValue(8, 2, 1); p <= 0 || p >= 1 {
		t.Errorf("p = %v", p)
	}
	// Larger hidden bias can only weaken the conclusion.
	prev := 0.0
	for _, g := range []float64{1, 1.5, 2, 3, 5} {
		p := SensitivityPValue(80, 20, g)
		if p < prev {
			t.Fatalf("p-value decreased with gamma %v", g)
		}
		prev = p
	}
	if p := SensitivityPValue(0, 0, 1); p != 1 {
		t.Errorf("empty p = %v", p)
	}
	// Gamma below 1 clamps.
	if SensitivityPValue(8, 2, 0.5) != SensitivityPValue(8, 2, 1) {
		t.Error("gamma < 1 not clamped")
	}
}

func TestSensitivityGamma(t *testing.T) {
	// An overwhelming split survives substantial hidden bias.
	strong := SensitivityGamma(900, 100, 0.001, 10)
	if strong < 2 {
		t.Errorf("strong result gamma = %v", strong)
	}
	// A balanced split is fragile.
	if g := SensitivityGamma(50, 50, 0.001, 10); g != 1 {
		t.Errorf("fragile result gamma = %v, want 1", g)
	}
	// Monotone: stronger evidence, larger gamma.
	weak := SensitivityGamma(600, 400, 0.001, 10)
	if weak > strong {
		t.Errorf("weaker split has larger gamma: %v > %v", weak, strong)
	}
	// Saturates at the cap for near-unanimous outcomes.
	if g := SensitivityGamma(1000, 0, 0.001, 10); g != 10 {
		t.Errorf("unanimous gamma = %v, want cap", g)
	}
}

func TestSensitivityGammaInResults(t *testing.T) {
	d := synthDataset(3000, 17)
	res, err := Run(d, "metric_x", DefaultConfig(confounders()))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.Skipped {
			continue
		}
		if p.SensitivityGamma < 1 || p.SensitivityGamma > 10 {
			t.Errorf("%s: gamma = %v out of range", p.Comparison, p.SensitivityGamma)
		}
	}
}
