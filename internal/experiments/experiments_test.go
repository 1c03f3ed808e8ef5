package experiments

import (
	"maps"
	"strings"
	"testing"
	"time"

	"mpa/internal/cache"
	"mpa/internal/months"
	"mpa/internal/osp"
	"mpa/internal/par"
	"mpa/internal/practices"
)

// testEnv is a medium-scale environment shared by all experiment tests:
// large enough for the statistical machinery to produce stable shapes,
// small enough to keep the suite fast.
var testEnv = mustEnv()

func mustEnv() *Env {
	p := osp.Small(21)
	p.Networks = 240
	p.Start = months.Month{Year: 2014, Mon: time.January}
	p.End = months.Month{Year: 2014, Mon: time.October}
	env, err := NewEnv(p, cache.Config{})
	if err != nil {
		panic(err)
	}
	return env
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{
		"figure2", "figure3", "figure4", "figure5", "table2", "figure6",
		"table3", "table4", "table5", "table6", "table7", "table8",
		"section61", "figure8", "figure9", "figure10", "table9",
		"figure11", "figure12", "figure13",
		"ablation-binning", "ablation-matching", "ablation-learners",
		"ablation-grouping",
	}
	if len(ids) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Errorf("registry[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestRunByID(t *testing.T) {
	r, ok := Run(testEnv, "figure2")
	if !ok || r.ID != "figure2" {
		t.Fatalf("Run(figure2) = %v, %v", r.ID, ok)
	}
	if _, ok := Run(testEnv, "no-such"); ok {
		t.Error("unknown experiment id resolved")
	}
}

func TestAllExperimentsProduceOutput(t *testing.T) {
	for _, entry := range Registry() {
		r := entry.Run(testEnv)
		if r.ID != entry.ID {
			t.Errorf("%s: report id %q", entry.ID, r.ID)
		}
		if r.Title == "" || r.Text == "" {
			t.Errorf("%s: empty title or text", entry.ID)
		}
		if len(r.Numbers) == 0 {
			t.Errorf("%s: no structured numbers", entry.ID)
		}
	}
}

func TestFigure2SurveyShape(t *testing.T) {
	r := Figure2(testEnv)
	if r.Numbers["high:No. of change events"] <= 25 {
		t.Error("change-events consensus missing")
	}
	if !strings.Contains(r.Text, "No. of change events") {
		t.Error("survey text incomplete")
	}
}

func TestTable2Scale(t *testing.T) {
	r := Table2(testEnv)
	if r.Numbers["networks"] != 240 {
		t.Errorf("networks = %v", r.Numbers["networks"])
	}
	if r.Numbers["snapshots"] <= r.Numbers["devices"] {
		t.Error("fewer snapshots than devices")
	}
	if r.Numbers["tickets"] <= 0 {
		t.Error("no tickets")
	}
}

func TestFigure3DeltaMonotone(t *testing.T) {
	r := Figure3(testEnv)
	// Larger delta => no more events (median can only fall).
	prev := r.Numbers["median:0"]
	for _, d := range []int{1, 2, 5, 10, 15, 30} {
		cur := r.Numbers[medianKey(d)]
		if cur > prev+1e-9 {
			t.Errorf("median events increased at delta=%d: %v > %v", d, cur, prev)
		}
		prev = cur
	}
}

func medianKey(d int) string {
	return "median:" + itoa(d)
}

func itoa(d int) string {
	if d == 0 {
		return "0"
	}
	var digits []byte
	for d > 0 {
		digits = append([]byte{byte('0' + d%10)}, digits...)
		d /= 10
	}
	return string(digits)
}

func TestFigure4Shapes(t *testing.T) {
	r := Figure4(testEnv)
	// Models and roles have monotone-leaning relationships with tickets.
	if r.Numbers["monotone:"+practices.MetricModels] < 0.5 {
		t.Errorf("models relationship not increasing: %v", r.Numbers["monotone:"+practices.MetricModels])
	}
	if r.Numbers["monotone:"+practices.MetricRoles] < 0.5 {
		t.Errorf("roles relationship not increasing: %v", r.Numbers["monotone:"+practices.MetricRoles])
	}
}

func TestFigure5Confounding(t *testing.T) {
	r := Figure5(testEnv)
	if r.Numbers["roles_models_correlation"] < 0.2 {
		t.Errorf("roles/models correlation = %v, expected positive confounding",
			r.Numbers["roles_models_correlation"])
	}
}

func TestFigure6StrongMonotone(t *testing.T) {
	r := Figure6(testEnv)
	for _, m := range []string{practices.MetricDevices, practices.MetricChangeEvents} {
		if r.Numbers["monotone:"+m] < 0.7 {
			t.Errorf("%s: monotone score %v, want >= 0.7", m, r.Numbers["monotone:"+m])
		}
	}
}

func TestTable3TopPractices(t *testing.T) {
	r := Table3(testEnv)
	// The paper's #1 and #2 (devices, change events) must rank highly.
	if r.Numbers["rank:"+practices.MetricDevices] > 6 {
		t.Errorf("no_devices rank = %v, want top 6", r.Numbers["rank:"+practices.MetricDevices])
	}
	if r.Numbers["rank:"+practices.MetricChangeEvents] > 6 {
		t.Errorf("no_change_events rank = %v, want top 6", r.Numbers["rank:"+practices.MetricChangeEvents])
	}
	// The complexity metrics must show nonzero statistical dependence
	// despite having no direct causal weight — pure confounding. In our
	// synthetic OSP the inter-device variant carries the stronger proxy
	// signal (the paper's data had intra-device complexity at rank 3);
	// both must stay non-causal (checked in TestTable7CausalRecovery).
	if r.Numbers["rank:"+practices.MetricInterComplexity] > 14 {
		t.Errorf("inter-device complexity rank = %v, want top 14",
			r.Numbers["rank:"+practices.MetricInterComplexity])
	}
	if r.Numbers["mi:"+practices.MetricIntraComplexity] <= 0 {
		t.Error("intra-device complexity has zero MI")
	}
	// Middlebox-change fraction must NOT rank in the top 10 (paper: rank
	// 23 of 28, contradicting operator opinion).
	if r.Numbers["rank:"+practices.MetricFracEventsMbox] <= 10 {
		t.Errorf("mbox fraction rank = %v, expected outside top 10",
			r.Numbers["rank:"+practices.MetricFracEventsMbox])
	}
}

func TestTable4PairsPlausible(t *testing.T) {
	r := Table4(testEnv)
	if r.Numbers["top10_in_pairs"] < 2 {
		t.Errorf("only %v of MI top-10 appear in top CMI pairs", r.Numbers["top10_in_pairs"])
	}
}

func TestTable5MatchingQuality(t *testing.T) {
	r := Table5(testEnv)
	// The 1:2 point must produce a healthy number of pairs, with
	// replacement visible (distinct untreated < pairs) and balanced
	// propensity scores.
	if r.Numbers["pairs:1:2"] < 50 {
		t.Fatalf("1:2 pairs = %v", r.Numbers["pairs:1:2"])
	}
	if r.Numbers["untreated_matched:1:2"] > r.Numbers["pairs:1:2"] {
		t.Error("distinct untreated exceeds pairs")
	}
	if r.Numbers["ps_diff:1:2"] > 0.25 {
		t.Errorf("propensity std diff = %v", r.Numbers["ps_diff:1:2"])
	}
	if v := r.Numbers["ps_var:1:2"]; v < 0.5 || v > 2 {
		t.Errorf("propensity var ratio = %v", v)
	}
}

func TestTable6ChangeEventsCausal(t *testing.T) {
	r := Table6(testEnv)
	// The paper's flagship causal result: more change events cause more
	// tickets at the 1:2 point. At this medium test scale the sign test
	// has a fraction of the paper's power, so require strong evidence
	// rather than the full alpha=0.001 bar (the paper-scale run clears
	// it: see EXPERIMENTS.md).
	if r.Numbers["p:1:2"] >= 0.01 {
		t.Errorf("1:2 p-value = %v, want < 0.01", r.Numbers["p:1:2"])
	}
	if r.Numbers["more:1:2"] <= r.Numbers["fewer:1:2"] {
		t.Error("treated cases do not show more tickets")
	}
}

func TestTable7CausalRecovery(t *testing.T) {
	r := Table7(testEnv)
	// Ground truth: devices, events, change types, VLANs, models, roles,
	// devices/event, ACL fraction are causal; intra-complexity and
	// interface fraction are not. At this medium scale the sign test has
	// limited power and some matchings are imbalanced, so require at
	// least two causal flags (the paper-scale run recovers more; see
	// EXPERIMENTS.md) and, critically, no false flags on the confounded
	// practices.
	if r.Numbers["causal_count"] < 2 {
		t.Errorf("causal count = %v, want >= 2 of 10", r.Numbers["causal_count"])
	}
	for _, confounded := range []string{
		practices.MetricIntraComplexity,
		practices.MetricInterComplexity,
		practices.MetricFracEventsIface,
	} {
		if v, ok := r.Numbers["causal:"+confounded]; ok && v == 1 {
			t.Errorf("%s flagged causal — it has no direct effect", confounded)
		}
	}
	if v, ok := r.Numbers["p:"+practices.MetricChangeEvents]; ok && v > 0.2 {
		t.Errorf("change events p-value = %v, want strong evidence at this scale", v)
	}
}

func TestTable8UpperBinsSparse(t *testing.T) {
	r := Table8(testEnv)
	if r.Numbers["imbalanced_frac"] < 0.1 {
		t.Errorf("imbalanced fraction = %v, expected sparse upper bins (paper: >1/3)",
			r.Numbers["imbalanced_frac"])
	}
}

func TestSection61ModelOrdering(t *testing.T) {
	r := Section61(testEnv)
	if r.Numbers["dt_accuracy"] <= r.Numbers["majority_accuracy"] {
		t.Errorf("tree %.3f <= majority %.3f", r.Numbers["dt_accuracy"], r.Numbers["majority_accuracy"])
	}
	if r.Numbers["dt_accuracy"] < 0.7 {
		t.Errorf("tree accuracy = %v", r.Numbers["dt_accuracy"])
	}
	// Healthy class dominates: high precision/recall there.
	if r.Numbers["dt_rec_healthy"] < 0.8 {
		t.Errorf("healthy recall = %v", r.Numbers["dt_rec_healthy"])
	}
}

func TestFigure8OversamplingHelps(t *testing.T) {
	r := Figure8(testEnv)
	// Oversampling must lift recall of at least one intermediate class
	// relative to the plain tree (the paper's core Figure 8 claim).
	improved := false
	for _, cls := range []string{"Good", "Moderate", "Poor"} {
		plain := r.Numbers["recall:DT:"+cls]
		os := r.Numbers["recall:DT+OS:"+cls]
		if os > plain {
			improved = true
		}
	}
	if !improved {
		t.Error("oversampling did not lift any intermediate-class recall")
	}
}

func TestFigure9Skew(t *testing.T) {
	r := Figure9(testEnv)
	if f := r.Numbers["healthy_frac"]; f < 0.5 || f > 0.85 {
		t.Errorf("healthy fraction = %v, want ~0.65", f)
	}
	if f := r.Numbers["excellent_frac"]; f < 0.6 || f > 0.9 {
		t.Errorf("excellent fraction = %v, want ~0.73", f)
	}
	if r.Numbers["poor_frac"] > 0.15 {
		t.Errorf("poor fraction = %v, too heavy", r.Numbers["poor_frac"])
	}
}

func TestFigure10TreeStructure(t *testing.T) {
	r := Figure10(testEnv)
	if r.Numbers["depth_2class"] < 1 {
		t.Error("2-class tree is a lone leaf")
	}
	if !strings.Contains(r.Text, "No. of") {
		t.Error("tree render missing feature names")
	}
}

func TestTable9OnlineAccuracy(t *testing.T) {
	r := Table9(testEnv)
	// 2-class online accuracy should be solidly above the majority rate
	// and roughly flat in M; 5-class lower but reasonable.
	for _, m := range []string{"M1", "M3", "M6", "M9"} {
		if v, ok := r.Numbers["acc2:"+m]; ok && v < 0.7 {
			t.Errorf("2-class %s accuracy = %v", m, v)
		}
		if v, ok := r.Numbers["acc5:"+m]; ok && v < 0.5 {
			t.Errorf("5-class %s accuracy = %v", m, v)
		}
	}
	if _, ok := r.Numbers["acc2:M3"]; !ok {
		t.Fatal("M=3 missing")
	}
}

func TestFigure11DesignShapes(t *testing.T) {
	r := Figure11(testEnv)
	if v := r.Numbers["bgp_usage"]; v < 0.7 || v > 1 {
		t.Errorf("BGP usage = %v, want ~0.86", v)
	}
	if v := r.Numbers["ospf_usage"]; v < 0.1 || v > 0.6 {
		t.Errorf("OSPF usage = %v, want ~0.31", v)
	}
	if r.Numbers["vlans_frac_over100"] <= 0 {
		t.Error("no networks with >100 VLANs — tail missing")
	}
	if r.Numbers["hw_entropy_median"] <= 0 || r.Numbers["hw_entropy_median"] >= 1 {
		t.Errorf("hardware entropy median = %v", r.Numbers["hw_entropy_median"])
	}
}

func TestFigure12OperationalShapes(t *testing.T) {
	r := Figure12(testEnv)
	if v := r.Numbers["size_change_correlation"]; v < 0.3 {
		t.Errorf("size/change correlation = %v, want positive (paper 0.64)", v)
	}
	// Interface changes are the most common type.
	iface := r.Numbers["type_median:iface"]
	for _, other := range []string{"pool", "acl", "user", "router"} {
		if r.Numbers["type_median:"+other] > iface {
			t.Errorf("%s median %v exceeds iface %v", other, r.Numbers["type_median:"+other], iface)
		}
	}
	if r.Numbers["events_p90"] <= r.Numbers["events_p10"] {
		t.Error("event-rate spread missing")
	}
}

func TestFigure13EventShapes(t *testing.T) {
	r := Figure13(testEnv)
	if v := r.Numbers["devs_per_event_median"]; v < 1 || v > 4 {
		t.Errorf("devices/event median = %v", v)
	}
	if r.Numbers["frac_small_events"] < 0.4 {
		t.Errorf("small-event fraction = %v, want most events small", r.Numbers["frac_small_events"])
	}
}

func TestAblationBinningShowsCollapse(t *testing.T) {
	r := AblationBinning(testEnv)
	if r.Numbers["naive_max_frac"] <= r.Numbers["paper_max_frac"] {
		t.Errorf("naive binning (%v) not worse than anchored (%v)",
			r.Numbers["naive_max_frac"], r.Numbers["paper_max_frac"])
	}
}

func TestAblationMatchingExactStarves(t *testing.T) {
	r := AblationMatching(testEnv)
	if r.Numbers["pairs:exact"]*5 > r.Numbers["pairs:propensity"] {
		t.Errorf("exact pairs %v vs propensity %v — exact should starve",
			r.Numbers["pairs:exact"], r.Numbers["pairs:propensity"])
	}
}

func TestAblationLearnersOrdering(t *testing.T) {
	r := AblationLearners(testEnv)
	if r.Numbers["accuracy:DT"] <= r.Numbers["accuracy:Majority"]-0.05 {
		t.Errorf("DT %.3f well below majority %.3f",
			r.Numbers["accuracy:DT"], r.Numbers["accuracy:Majority"])
	}
	if r.Numbers["mean_recall:DT+AB+OS"] < r.Numbers["mean_recall:DT"]-0.02 {
		t.Errorf("AB+OS mean recall %.3f below plain DT %.3f",
			r.Numbers["mean_recall:DT+AB+OS"], r.Numbers["mean_recall:DT"])
	}
}

func TestEnvDeterministic(t *testing.T) {
	p := osp.Small(33)
	p.Networks = 12
	a, err := NewEnv(p, cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(p, cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ra := Table3(a)
	rb := Table3(b)
	if ra.Text != rb.Text {
		t.Error("Table3 not deterministic across identical envs")
	}
}

// setWorkers sets the process-wide pool width for the rest of the test.
func setWorkers(t *testing.T, n int) {
	t.Helper()
	orig := par.Workers()
	par.SetWorkers(n)
	t.Cleanup(func() { par.SetWorkers(orig) })
}

// TestWorkerCountInvariance is the parallelism regression gate: an Env
// built and run with every pool inline (one worker) and one built and run
// eight wide must agree on every registered experiment, byte for byte.
// Any scheduling-order dependence in generation, inference, a
// cross-validation fold, a forest, or an experiment shows up here.
func TestWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two full envs")
	}
	p := osp.Small(33)
	p.Networks = 12
	// Envs compute lazily, so each side builds and runs at its width.
	run := func(workers int) []RunResult {
		setWorkers(t, workers)
		env, err := NewEnv(p, cache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return RunAll(env, nil)
	}
	want := run(1)
	got := run(8)
	if len(got) != len(want) {
		t.Fatalf("RunAll lengths differ: %d vs %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.OK != w.OK {
			t.Fatalf("result[%d] = (%s, %v), want (%s, %v)", i, g.ID, g.OK, w.ID, w.OK)
		}
		if g.Report.Text != w.Report.Text {
			t.Errorf("%s: Text differs between workers=1 and workers=8", w.ID)
		}
		if len(g.Report.Numbers) != len(w.Report.Numbers) {
			t.Errorf("%s: Numbers has %d keys at workers=8, %d at workers=1",
				w.ID, len(g.Report.Numbers), len(w.Report.Numbers))
			continue
		}
		for k, wv := range w.Report.Numbers {
			if gv, ok := g.Report.Numbers[k]; !ok || gv != wv {
				t.Errorf("%s: Numbers[%q] = %v at workers=8, want %v", w.ID, k, gv, wv)
			}
		}
	}
}

// TestFannedOutReportsWorkerInvariance runs the reports whose analyses
// fan out inside one report — Table 7's and Table 8's causal runs, Table
// 9's histories and months, Figure 8's variants — alone on a memo-less
// Env, one worker wide and eight wide, and requires identical reports.
// TestWorkerCountInvariance reaches them only through RunAll on a
// memoized Env, where other reports may already have run the analyses.
func TestFannedOutReportsWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four reports twice")
	}
	p := osp.Small(33)
	p.Networks = 12
	env, err := NewEnv(p, cache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, id string) Report {
		setWorkers(t, workers)
		bare := &Env{Params: env.Params, OSP: env.OSP, Analysis: env.Analysis, Data: env.Data}
		r, ok := Run(bare, id)
		if !ok {
			t.Fatalf("unknown experiment %s", id)
		}
		return r
	}
	for _, id := range []string{"table7", "table8", "table9", "figure8"} {
		want, got := run(1, id), run(8, id)
		if got.Text != want.Text {
			t.Errorf("%s: Text differs between workers=1 and workers=8", id)
		}
		if !maps.Equal(got.Numbers, want.Numbers) {
			t.Errorf("%s: Numbers differ between workers=1 and workers=8", id)
		}
		if len(want.Numbers) == 0 {
			t.Errorf("%s: no numbers", id)
		}
	}
}

func TestAblationGroupingRefines(t *testing.T) {
	r := AblationGrouping(testEnv)
	if r.Numbers["mean_split_ratio"] < 1 {
		t.Errorf("split ratio = %v, refinement can only split", r.Numbers["mean_split_ratio"])
	}
	if r.Numbers["typed_median"] < r.Numbers["plain_median"] {
		t.Errorf("typed median %v < plain median %v",
			r.Numbers["typed_median"], r.Numbers["plain_median"])
	}
}
