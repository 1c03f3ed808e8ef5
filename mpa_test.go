package mpa

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mpa/internal/experiments"
	"mpa/internal/stats"
	"mpa/internal/ticketing"
)

// testFramework is built once for the package's tests.
var testFramework = mustFramework()

func mustFramework() *Framework {
	cfg := SmallConfig(3)
	cfg.Networks = 80
	f, err := NewSynthetic(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

func TestNewSyntheticDeterministic(t *testing.T) {
	cfg := SmallConfig(8)
	cfg.Networks = 10
	a, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Dataset().String() != b.Dataset().String() {
		t.Fatal("datasets differ across identical configs")
	}
	ra := a.RankPractices()
	rb := b.RankPractices()
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatal("rankings differ across identical configs")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	// A zero-ish config gets sane defaults instead of panicking.
	f, err := NewSynthetic(Config{Seed: 1, Networks: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Window()) != 17 {
		t.Errorf("default window = %d months, want the 17-month study", len(f.Window()))
	}
}

func TestConfigRejected(t *testing.T) {
	jan, feb := Month{Year: 2014, Mon: time.January}, Month{Year: 2014, Mon: time.February}
	for name, cfg := range map[string]Config{
		"end before start":   {Seed: 1, Networks: 3, Start: feb, End: jan},
		"negative networks":  {Seed: 1, Networks: -1, Start: jan, End: feb},
		"negative, defaults": {Seed: 1, Networks: -5},
	} {
		if _, err := NewSynthetic(cfg); err == nil {
			t.Errorf("%s: NewSynthetic(%+v) succeeded, want an error", name, cfg)
		}
		if _, err := NextMonths(cfg, 1); err == nil {
			t.Errorf("%s: NextMonths(%+v) succeeded, want an error", name, cfg)
		}
	}
}

func TestDefaultConfigPaperScale(t *testing.T) {
	cfg := DefaultConfig(1)
	if cfg.Networks != 850 {
		t.Errorf("networks = %d, want 850", cfg.Networks)
	}
	start, end := StudyWindow()
	if cfg.Start != start || cfg.End != end {
		t.Error("default window is not the study window")
	}
}

func TestRankPracticesComplete(t *testing.T) {
	ranked := testFramework.RankPractices()
	if len(ranked) != len(MetricNames) {
		t.Fatalf("ranked %d practices, want %d", len(ranked), len(MetricNames))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].MI > ranked[i-1].MI {
			t.Fatal("ranking not sorted by MI")
		}
	}
	for _, e := range ranked {
		if e.MI < 0 {
			t.Errorf("%s has negative MI %v", e.Metric, e.MI)
		}
	}
}

func TestAnalyzeCausalAPI(t *testing.T) {
	res, err := testFramework.AnalyzeCausal("no_change_events")
	if err != nil {
		t.Fatal(err)
	}
	if res.Treatment != "no_change_events" || len(res.Points) != 4 {
		t.Fatalf("result = %+v", res)
	}
	// An unknown practice errors before the memo is consulted: qed.Run
	// would bin the absent metric as all zeros and report empty points.
	before := testFramework.QueryCacheStats()
	if res, err := testFramework.AnalyzeCausal("bogus"); err == nil {
		t.Fatalf("unknown practice analyzed: %+v", res)
	}
	if after := testFramework.QueryCacheStats(); after != before {
		t.Errorf("unknown practice touched the memo: %+v -> %+v", before, after)
	}
}

func TestTrainHealthModel(t *testing.T) {
	for _, g := range []Granularity{TwoClass, FiveClass} {
		model, err := testFramework.TrainHealthModel(g)
		if err != nil {
			t.Fatal(err)
		}
		q := model.Quality()
		if q.Accuracy <= 0 || q.Accuracy > 1 {
			t.Errorf("%d-class accuracy = %v", int(g), q.Accuracy)
		}
		if len(q.Precision) != int(g) || len(q.Recall) != int(g) {
			t.Errorf("%d-class precision/recall lengths wrong", int(g))
		}
		// Predictions are valid class indexes.
		for _, c := range testFramework.Dataset().Cases[:20] {
			p := model.Predict(c.Metrics)
			if p < 0 || p >= int(g) {
				t.Fatalf("prediction %d out of range", p)
			}
			if model.PredictClassName(c.Metrics) == "" {
				t.Fatal("empty class name")
			}
		}
	}
}

func TestTwoClassBeatsBaseline(t *testing.T) {
	model, err := testFramework.TrainHealthModel(TwoClass)
	if err != nil {
		t.Fatal(err)
	}
	q := model.Quality()
	if q.Accuracy <= q.MajorityAccuracy {
		t.Errorf("model %.3f <= majority %.3f", q.Accuracy, q.MajorityAccuracy)
	}
}

func TestTrainHealthModelErrors(t *testing.T) {
	if _, err := testFramework.TrainHealthModelOn(&Dataset{}, TwoClass, ModelOptions{}); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := testFramework.TrainHealthModelOn(testFramework.Dataset(), Granularity(3), ModelOptions{}); err == nil {
		t.Error("bad granularity should error")
	}
}

func TestPredictOnline(t *testing.T) {
	preds, err := testFramework.PredictOnline(TwoClass, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(testFramework.Window())-2 {
		t.Fatalf("predictions for %d months", len(preds))
	}
	for _, p := range preds {
		if p.Accuracy < 0 || p.Accuracy > 1 || p.Cases <= 0 {
			t.Errorf("bad prediction %+v", p)
		}
	}
	if _, err := testFramework.PredictOnline(TwoClass, 0); err == nil {
		t.Error("zero history should error")
	}
	if _, err := testFramework.PredictOnline(Granularity(3), 2); err == nil {
		t.Error("bad granularity should error")
	}
}

// TestPredictOnlineMatchesTable9 pins that PredictOnline and Table 9 are
// one protocol: for every history Table 9 reports, the mean of
// PredictOnline's per-month accuracies is Table 9's number exactly.
func TestPredictOnlineMatchesTable9(t *testing.T) {
	cfg := SmallConfig(5)
	cfg.Networks = 30
	cfg.End = cfg.Start.Add(7)
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := f.Experiment("table9")
	compared := 0
	for _, g := range []Granularity{TwoClass, FiveClass} {
		for _, m := range []int{1, 3, 6, 9} {
			preds, err := f.PredictOnline(g, m)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := r.Numbers[fmt.Sprintf("acc%d:M%d", g, m)]
			if !ok {
				if len(preds) != 0 {
					t.Errorf("%d-class M=%d: %d predictions, but Table 9 skips the history", g, m, len(preds))
				}
				continue
			}
			compared++
			accs := make([]float64, len(preds))
			for i, p := range preds {
				accs[i] = p.Accuracy
			}
			if got := stats.Mean(accs); got != want {
				t.Errorf("%d-class M=%d: PredictOnline mean %v, Table 9 %v", g, m, got, want)
			}
		}
	}
	if compared != 6 { // M = 1, 3, 6 fit an 8-month window
		t.Errorf("compared %d histories, want 6", compared)
	}
}

// TestReportsShareAnalyses replays the cold set of the benchmark's
// cold_start workload — the ranking, one prediction, the top three
// causal analyses, then tables 3, 7 and 8, figure 8 and table 9 — on one
// framework over its organization (seed 77, 60 networks × 8 months).
// Reports and queries share the MI ranking and the causal runs, so the
// ten distinct treatments run once each and the ranking once. Each
// report still equals experiments.Run on a memo-less Env, the kept
// reference path.
func TestReportsShareAnalyses(t *testing.T) {
	cfg := SmallConfig(77)
	cfg.Networks = 60
	cfg.End = cfg.Start.Add(7)
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rank := f.RankPractices()
	if _, err := f.PredictNetworkMonth(f.Dataset().Networks()[0], cfg.End); err != nil {
		t.Fatal(err)
	}
	for _, e := range rank[:3] {
		if _, err := f.AnalyzeCausal(e.Metric); err != nil {
			t.Fatal(err)
		}
	}
	ids := []string{"table3", "table7", "table8", "figure8", "table9"}
	got := map[string]Report{}
	for _, id := range ids {
		got[id], _ = f.Experiment(id)
	}
	if n := f.StageCalls("causal"); n != 10 {
		t.Errorf("causal stage ran %d times, want 10 (one per distinct treatment)", n)
	}
	if n := f.StageCalls("mi_ranking"); n != 1 {
		t.Errorf("mi_ranking stage ran %d times, want 1", n)
	}
	env := f.environment()
	bare := &experiments.Env{Params: env.Params, OSP: env.OSP, Analysis: env.Analysis, Data: env.Data}
	for _, id := range ids {
		want, _ := experiments.Run(bare, id)
		if got[id].Digest() != want.Digest() {
			t.Errorf("%s: memoized report differs from the memo-less run", id)
		}
	}
}

// TestConcurrentReportsShareAnalyses is TestReportsShareAnalyses for
// concurrent callers: Tables 7 and 8, asked for at once on a fresh
// framework, fan their ten causal runs out over the pool, and the memo's
// single flight still runs each treatment once.
func TestConcurrentReportsShareAnalyses(t *testing.T) {
	cfg := SmallConfig(77)
	cfg.Networks = 40
	cfg.End = cfg.Start.Add(5)
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"table7", "table8"}
	got := make([]Report, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = f.Experiment(id)
		}()
	}
	wg.Wait()
	if n := f.StageCalls("causal"); n != 10 {
		t.Errorf("causal stage ran %d times, want 10 (one per distinct treatment)", n)
	}
	if n := f.StageCalls("mi_ranking"); n != 1 {
		t.Errorf("mi_ranking stage ran %d times, want 1", n)
	}
	env := f.environment()
	bare := &experiments.Env{Params: env.Params, OSP: env.OSP, Analysis: env.Analysis, Data: env.Data}
	for i, id := range ids {
		want, _ := experiments.Run(bare, id)
		if got[i].Digest() != want.Digest() {
			t.Errorf("%s: concurrently memoized report differs from the memo-less run", id)
		}
	}
}

// TestPredictNetworkMonthWorkerInvariance builds a framework one worker
// wide and one eight wide and requires the same predictions for several
// network-months and the same cross-validated quality for both models,
// which train side by side and beside their cross-validation.
func TestPredictNetworkMonthWorkerInvariance(t *testing.T) {
	cfg := SmallConfig(77)
	cfg.Networks = 30
	cfg.End = cfg.Start.Add(5)
	type answer struct {
		preds   []NetworkPrediction
		quality []ModelQuality
	}
	run := func(workers int) answer {
		SetWorkers(workers)
		defer SetWorkers(0)
		f, err := NewSynthetic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var a answer
		for i, n := range f.Dataset().Networks()[:6] {
			p, err := f.PredictNetworkMonth(n, f.Window()[i%len(f.Window())])
			if err != nil {
				t.Fatal(err)
			}
			a.preds = append(a.preds, *p)
		}
		for _, g := range []Granularity{TwoClass, FiveClass} {
			m, err := f.TrainHealthModel(g)
			if err != nil {
				t.Fatal(err)
			}
			a.quality = append(a.quality, m.Quality())
		}
		return a
	}
	want, got := run(1), run(8)
	if !reflect.DeepEqual(got.preds, want.preds) {
		t.Errorf("predictions differ between workers=1 and workers=8:\n%+v\n%+v", got.preds, want.preds)
	}
	if !reflect.DeepEqual(got.quality, want.quality) {
		t.Errorf("model quality differs between workers=1 and workers=8:\n%+v\n%+v", got.quality, want.quality)
	}
}

func TestExperimentAPI(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 20 {
		t.Fatalf("only %d experiments", len(ids))
	}
	r, ok := testFramework.Experiment("figure9")
	if !ok || r.Text == "" {
		t.Fatal("figure9 experiment failed")
	}
	if _, ok := testFramework.Experiment("bogus"); ok {
		t.Error("bogus experiment resolved")
	}
}

func TestNewFromOwnData(t *testing.T) {
	// An organization plugging in its own (here: borrowed synthetic)
	// data sources.
	src := testFramework
	start, end := src.Window()[0], src.Window()[len(src.Window())-1]
	o := src.environment().OSP
	f, err := New(o.Inventory, o.Archive, o.Tickets, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if f.Dataset().Len() != src.Dataset().Len() {
		t.Errorf("case counts differ: %d vs %d", f.Dataset().Len(), src.Dataset().Len())
	}
	// Same data => same ranking.
	if f.RankPractices()[0] != src.RankPractices()[0] {
		t.Error("top practice differs on identical data")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil, Month{}, Month{}); err == nil {
		t.Error("nil sources should error")
	}
	inv := &Inventory{}
	arch := testFramework.environment().OSP.Archive
	log := ticketing.NewLog()
	end := Month{Year: 2014, Mon: time.January}
	start := Month{Year: 2014, Mon: time.March}
	if _, err := New(inv, arch, log, start, end); err == nil {
		t.Error("inverted window should error")
	}
}

func TestGranularityClassNames(t *testing.T) {
	if len(TwoClass.ClassNames()) != 2 || len(FiveClass.ClassNames()) != 5 {
		t.Error("class name lengths wrong")
	}
}

func TestMetricHelpers(t *testing.T) {
	if len(MetricNames) != 28 {
		t.Fatalf("MetricNames = %d", len(MetricNames))
	}
	if DisplayName("no_devices") != "No. of devices" {
		t.Error("DisplayName wrong")
	}
	if MetricCategory("no_devices") != "design" || MetricCategory("no_change_events") != "operational" {
		t.Error("MetricCategory wrong")
	}
}

func TestMonthOf(t *testing.T) {
	m := MonthOf(time.Date(2014, 3, 15, 10, 0, 0, 0, time.UTC))
	if m != (Month{Year: 2014, Mon: time.March}) {
		t.Errorf("MonthOf = %v", m)
	}
}

func TestSaveAndLoadOrganization(t *testing.T) {
	cfg := SmallConfig(13)
	cfg.Networks = 6
	f, err := NewSynthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := f.Save(dir); err != nil {
		t.Fatal(err)
	}
	start, end := f.Window()[0], f.Window()[len(f.Window())-1]
	loaded, err := LoadOrganization(dir, nil, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Dataset().Cases, f.Dataset().Cases) {
		t.Fatal("datasets differ after a save/load round trip")
	}
	// The ML reports also read the generator seed, which is not part of
	// the saved data, so the digests are compared against a framework
	// built in memory from the same records.
	o := f.environment().OSP
	ref, err := New(o.Inventory, o.Archive, o.Tickets, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digestsOf(t, loaded), digestsOf(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("report digests differ after a save/load round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestLoadOrganizationMissingDir(t *testing.T) {
	start, end := StudyWindow()
	if _, err := LoadOrganization("/no/such/dir", nil, start, end); err == nil {
		t.Error("expected error")
	}
}

func TestNetworkReport(t *testing.T) {
	name := testFramework.Dataset().Networks()[0]
	out, err := testFramework.NetworkReport(name)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, name) || !strings.Contains(out, "Org percentile") {
		t.Errorf("report missing content:\n%s", out)
	}
	if !strings.Contains(out, "tickets") {
		t.Error("report missing health history")
	}
	if _, err := testFramework.NetworkReport("nope"); err == nil {
		t.Error("unknown network should error")
	}
}
