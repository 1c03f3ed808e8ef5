package experiments

import (
	"fmt"
	"strings"

	"mpa/internal/dataset"
	"mpa/internal/ml"
	"mpa/internal/months"
	"mpa/internal/obs"
	"mpa/internal/par"
	"mpa/internal/practices"
	"mpa/internal/report"
	"mpa/internal/rng"
	"mpa/internal/stats"
)

// learnBins is the paper's bin count for model features (§6.1: 5 bins, not
// 10, because the data is insufficient for fine-grained models).
const learnBins = 5

// CVFolds is the paper's cross-validation fold count.
const CVFolds = 5

// features5 returns the binned feature matrix with 5 bins per metric.
func features5(env *Env) [][]int {
	return env.Data.Bin(learnBins).FeatureMatrix()
}

// Learner is one of the paper's health-model learners (§6.1): a pruned
// decision tree over Classes health classes, optionally trained on
// minority-oversampled data and optionally boosted (AdaBoost, 15 rounds,
// last-tree mode). Figure 8 compares the four settings at 5 classes.
type Learner struct {
	Classes           int
	Boost, Oversample bool
}

// BestLearner returns the paper's best learner for a class count: a plain
// pruned tree for 2 classes, boosting plus oversampling for 5 (§6.1,
// Figure 8). Reports, online prediction and the framework's health models
// all train it.
func BestLearner(classes int) Learner {
	return Learner{Classes: classes, Boost: classes == 5, Oversample: classes == 5}
}

// Name is the learner's label in Figure 8: "DT", "DT+AB", "DT+OS" or
// "DT+AB+OS".
func (l Learner) Name() string {
	name := "DT"
	if l.Boost {
		name += "+AB"
	}
	if l.Oversample {
		name += "+OS"
	}
	return name
}

// Trainer returns the learner as an ml.Trainer. sp, when non-nil,
// receives the boosting rounds and tree sizes as counters.
func (l Learner) Trainer(sp *obs.Span) ml.Trainer {
	return func(X [][]int, y []int) ml.Classifier {
		if l.Oversample {
			if l.Classes == 2 {
				X, y = ml.Oversample2Class(X, y)
			} else {
				X, y = ml.Oversample5Class(X, y)
			}
		}
		if l.Boost {
			cfg := ml.DefaultBoostConfig()
			cfg.Obs = sp
			return ml.TrainAdaBoost(X, y, l.Classes, cfg)
		}
		t := ml.TrainTree(X, y, nil, l.Classes, ml.DefaultTreeConfig())
		sp.Count("tree_nodes", float64(t.NodeCount()))
		return t
	}
}

// Section61 reproduces the 2-class results of §6.1: the pruned decision
// tree's cross-validation accuracy and per-class precision/recall against
// the majority-class and SVM baselines.
func Section61(env *Env) Report {
	X := features5(env)
	y := env.Data.Labels(2)
	dt := ml.CrossValidate(X, y, 2, CVFolds, Learner{Classes: 2}.Trainer(nil), rng.New(env.Params.Seed+101))
	maj := ml.CrossValidate(X, y, 2, CVFolds, func(_ [][]int, ty []int) ml.Classifier {
		return ml.TrainMajority(ty, 2)
	}, rng.New(env.Params.Seed+101))
	svm := ml.CrossValidate(X, y, 2, CVFolds, func(tx [][]int, ty []int) ml.Classifier {
		return ml.TrainSVM(tx, ty, 2, rng.New(env.Params.Seed+202))
	}, rng.New(env.Params.Seed+101))

	tb := report.NewTable("Model", "Accuracy",
		"Prec(healthy)", "Rec(healthy)", "Prec(unhealthy)", "Rec(unhealthy)")
	row := func(name string, ev ml.Evaluation) {
		tb.AddRow(name, fmt.Sprintf("%.3f", ev.Accuracy),
			fmt.Sprintf("%.2f", ev.Precision[0]), fmt.Sprintf("%.2f", ev.Recall[0]),
			fmt.Sprintf("%.2f", ev.Precision[1]), fmt.Sprintf("%.2f", ev.Recall[1]))
	}
	row("Decision tree (pruned)", dt)
	row("Majority class", maj)
	row("Linear SVM", svm)
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nPaper: tree 91.6% vs majority 64.8%; SVM performed worse than majority\n")
	b.WriteString("because unhealthy cases concentrate in a small part of practice space.\n")
	return Report{
		ID:    "section61",
		Title: "Section 6.1: 2-class model quality (5-fold cross-validation)",
		Text:  b.String(),
		Numbers: map[string]float64{
			"dt_accuracy":       dt.Accuracy,
			"majority_accuracy": maj.Accuracy,
			"svm_accuracy":      svm.Accuracy,
			"dt_prec_healthy":   dt.Precision[0],
			"dt_rec_healthy":    dt.Recall[0],
			"dt_prec_unhealthy": dt.Precision[1],
			"dt_rec_unhealthy":  dt.Recall[1],
		},
	}
}

// Figure8 compares the four 5-class model variants: plain tree, AdaBoost,
// oversampling, and both (paper Figure 8: per-class precision and recall).
func Figure8(env *Env) Report {
	X := features5(env)
	y := env.Data.Labels(5)
	variants := []Learner{{5, false, false}, {5, true, false}, {5, false, true}, {5, true, true}}
	evals, _ := par.Map(variants, func(_ int, v Learner) (ml.Evaluation, error) {
		return ml.CrossValidate(X, y, 5, CVFolds, v.Trainer(nil), rng.New(env.Params.Seed+303)), nil
	})
	numbers := map[string]float64{}
	var b strings.Builder
	for _, section := range []string{"Precision", "Recall"} {
		tb := report.NewTable(append([]string{section}, dataset.Class5Names...)...)
		for i, v := range variants {
			ev := evals[i]
			cells := []string{v.Name()}
			for c := 0; c < 5; c++ {
				val := ev.Precision[c]
				if section == "Recall" {
					val = ev.Recall[c]
				}
				cells = append(cells, fmt.Sprintf("%.2f", val))
				key := fmt.Sprintf("%s:%s:%s", strings.ToLower(section), v.Name(), dataset.Class5Names[c])
				numbers[key] = val
			}
			tb.AddRow(cells...)
			numbers["accuracy:"+v.Name()] = ev.Accuracy
		}
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	b.WriteString("Oversampling lifts the intermediate classes; AB+OS is the best overall (paper §6.1).\n")
	return Report{
		ID:      "figure8",
		Title:   "Figure 8: accuracy of 5-class models (DT / +AB / +OS / +AB+OS)",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// Figure9 shows the health-class distributions that cause the skew
// problem (paper Figure 9).
func Figure9(env *Env) Report {
	y2 := env.Data.Labels(2)
	y5 := env.Data.Labels(5)
	count := func(y []int, classes int) []int {
		out := make([]int, classes)
		for _, c := range y {
			out[c]++
		}
		return out
	}
	c2 := count(y2, 2)
	c5 := count(y5, 5)
	var b strings.Builder
	b.WriteString("(a) 2 classes:\n")
	b.WriteString(report.Histogram(dataset.Class2Names, c2))
	b.WriteString("(b) 5 classes:\n")
	b.WriteString(report.Histogram(dataset.Class5Names, c5))
	total := float64(len(y2))
	fmt.Fprintf(&b, "\nHealthy fraction %.1f%% (paper ~64.8%%); excellent fraction %.1f%% (paper ~73%%).\n",
		100*float64(c2[0])/total, 100*float64(c5[0])/total)
	numbers := map[string]float64{
		"healthy_frac":   float64(c2[0]) / total,
		"excellent_frac": float64(c5[0]) / total,
		"poor_frac":      float64(c5[3]) / total,
		"verypoor_frac":  float64(c5[4]) / total,
		"cases":          total,
	}
	return Report{
		ID:      "figure9",
		Title:   "Figure 9: health class distribution",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// Figure10 renders the top of the best 2-class and 5-class decision trees
// (paper Figure 10), and checks the paper's structural observation: the
// root is the practice with the strongest statistical dependence.
func Figure10(env *Env) Report {
	X := features5(env)
	featureNames := make([]string, len(practices.MetricNames))
	for i, m := range practices.MetricNames {
		featureNames[i] = practices.DisplayName(m)
	}
	// 5-class: oversample, then a single tree for interpretability (the
	// ensemble's vote has no single rendering; the oversampled tree shares
	// its structure with the best model's base learners).
	t5 := Learner{Classes: 5, Oversample: true}.Trainer(nil)(X, env.Data.Labels(5)).(*ml.Tree)
	t2 := ml.TrainTree(X, env.Data.Labels(2), nil, 2, ml.DefaultTreeConfig())

	var b strings.Builder
	b.WriteString("(a) 5-class tree (top 3 levels):\n")
	b.WriteString(t5.Render(featureNames, dataset.Class5Names, 3))
	b.WriteString("\n(b) 2-class tree (top 3 levels):\n")
	b.WriteString(t2.Render(featureNames, dataset.Class2Names, 3))

	topMI := MIRanking(env)[0].Metric
	rootMetric := ""
	if rf := t2.RootFeature(); rf >= 0 {
		rootMetric = practices.MetricNames[rf]
	}
	fmt.Fprintf(&b, "\n2-class root split: %s; top-MI practice: %s\n",
		practices.DisplayName(rootMetric), practices.DisplayName(topMI))
	rootIsTop := 0.0
	if rootMetric == topMI {
		rootIsTop = 1
	}
	return Report{
		ID:    "figure10",
		Title: "Figure 10: decision tree structure",
		Text:  b.String(),
		Numbers: map[string]float64{
			"root_is_top_mi": rootIsTop,
			"depth_2class":   float64(t2.Depth()),
			"nodes_2class":   float64(t2.NodeCount()),
			"depth_5class":   float64(t5.Depth()),
		},
	}
}

// OnlineMonth is one month's out-of-sample result under the online
// protocol: Accuracy[k] is the fraction of the month's Cases that the
// k-th requested class count's model predicted correctly.
type OnlineMonth struct {
	Month    months.Month
	Cases    int
	Accuracy []float64
}

// Online runs the paper's online prediction protocol (§6.2): for each
// month t with history earlier months in the window, it trains
// BestLearner for each of classes on months t-history..t-1 and scores it
// on month t, binning month t with the training window's bin edges. Each
// training window is binned once for all class counts. Months whose
// training or test slice is empty are skipped.
//
// Each test month is an independent job on up to par.Workers
// goroutines: it reads only env.Data and trains its own models, and the
// months are merged in window order, so the result is the same at every
// worker count.
func Online(env *Env, history int, classes ...int) []OnlineMonth {
	window := env.Window()
	if history >= len(window) {
		return nil
	}
	results, _ := par.Map(window[history:], func(j int, month months.Month) (*OnlineMonth, error) {
		train := env.Data.FilterMonths(window[j], window[j+history-1])
		test := env.Data.FilterMonths(month, month)
		if train.Len() == 0 || test.Len() == 0 {
			return nil, nil
		}
		binned := train.Bin(learnBins)
		trX := binned.FeatureMatrix()
		teX := make([][]int, test.Len())
		for i, c := range test.Cases {
			teX[i] = dataset.BinRow(binned.Binners, c.Metrics)
		}
		om := &OnlineMonth{Month: month, Cases: test.Len()}
		for _, k := range classes {
			model := BestLearner(k).Trainer(nil)(trX, train.Labels(k))
			correct := 0
			for i, want := range test.Labels(k) {
				if model.Predict(teX[i]) == want {
					correct++
				}
			}
			om.Accuracy = append(om.Accuracy, float64(correct)/float64(len(teX)))
		}
		return om, nil
	})
	var out []OnlineMonth
	for _, om := range results {
		if om != nil {
			out = append(out, *om)
		}
	}
	return out
}

// Table9 reproduces online prediction: train on months t-M..t-1, predict
// month t, average accuracy over t (paper Table 9, M in {1, 3, 6, 9}).
// Each history is one job; histories longer than the window allows are
// skipped.
func Table9(env *Env) Report {
	var histories []int
	for _, M := range []int{1, 3, 6, 9} {
		if M < len(env.Window()) {
			histories = append(histories, M)
		}
	}
	runs, _ := par.Map(histories, func(_ int, M int) ([]OnlineMonth, error) {
		return Online(env, M, 2, 5), nil
	})
	tb := report.NewTable("M (months)", "5-class accuracy", "2-class accuracy")
	numbers := map[string]float64{}
	for i, M := range histories {
		var acc2, acc5 []float64
		for _, om := range runs[i] {
			acc2 = append(acc2, om.Accuracy[0])
			acc5 = append(acc5, om.Accuracy[1])
		}
		if len(acc2) == 0 {
			continue
		}
		m5, m2 := stats.Mean(acc5), stats.Mean(acc2)
		tb.AddRow(fmt.Sprint(M), fmt.Sprintf("%.3f", m5), fmt.Sprintf("%.3f", m2))
		numbers[fmt.Sprintf("acc5:M%d", M)] = m5
		numbers[fmt.Sprintf("acc2:M%d", M)] = m2
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nPaper: 2-class ~0.88-0.90 regardless of M; 5-class improves with history\n")
	b.WriteString("(0.73 at M=1 to 0.78 at M=9), with diminishing returns.\n")
	return Report{
		ID:      "table9",
		Title:   "Table 9: accuracy of future health predictions",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// AblationLearners compares the full learner zoo on the 5-class task:
// plain/boosted/oversampled trees, random-forest variants, SVM, and the
// majority baseline (paper Figure 8 + footnote 2).
func AblationLearners(env *Env) Report {
	X := features5(env)
	y := env.Data.Labels(5)
	entries := []struct {
		name    string
		trainer ml.Trainer
	}{
		{"Majority", func(_ [][]int, ty []int) ml.Classifier { return ml.TrainMajority(ty, 5) }},
		{"DT", Learner{Classes: 5}.Trainer(nil)},
		{"DT+AB+OS", BestLearner(5).Trainer(nil)},
		{"RF-plain", func(tx [][]int, ty []int) ml.Classifier {
			return ml.TrainForest(tx, ty, 5, ml.DefaultForestConfig(), rng.New(env.Params.Seed+404))
		}},
		{"RF-balanced", func(tx [][]int, ty []int) ml.Classifier {
			cfg := ml.DefaultForestConfig()
			cfg.Variant = ml.ForestBalanced
			return ml.TrainForest(tx, ty, 5, cfg, rng.New(env.Params.Seed+404))
		}},
		{"RF-weighted", func(tx [][]int, ty []int) ml.Classifier {
			cfg := ml.DefaultForestConfig()
			cfg.Variant = ml.ForestWeighted
			return ml.TrainForest(tx, ty, 5, cfg, rng.New(env.Params.Seed+404))
		}},
		{"SVM", func(tx [][]int, ty []int) ml.Classifier {
			return ml.TrainSVM(tx, ty, 5, rng.New(env.Params.Seed+505))
		}},
	}
	tb := report.NewTable("Learner", "Accuracy", "Min class recall", "Mean class recall")
	numbers := map[string]float64{}
	for _, e := range entries {
		ev := ml.CrossValidate(X, y, 5, CVFolds, e.trainer, rng.New(env.Params.Seed+606))
		minRec, sumRec := 1.0, 0.0
		present := 0
		for c := 0; c < 5; c++ {
			actual := 0
			for o := 0; o < 5; o++ {
				actual += ev.Confusion[c][o]
			}
			if actual == 0 {
				continue
			}
			present++
			sumRec += ev.Recall[c]
			if ev.Recall[c] < minRec {
				minRec = ev.Recall[c]
			}
		}
		meanRec := 0.0
		if present > 0 {
			meanRec = sumRec / float64(present)
		}
		tb.AddRow(e.name, fmt.Sprintf("%.3f", ev.Accuracy),
			fmt.Sprintf("%.2f", minRec), fmt.Sprintf("%.2f", meanRec))
		numbers["accuracy:"+e.name] = ev.Accuracy
		numbers["mean_recall:"+e.name] = meanRec
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("\nPaper footnote 2: neither balanced nor weighted random forests improve\n")
	b.WriteString("minority-class accuracy beyond boosting + oversampling.\n")
	return Report{
		ID:      "ablation-learners",
		Title:   "Ablation: learner comparison on the 5-class task",
		Text:    b.String(),
		Numbers: numbers,
	}
}

// AblationBinning compares the paper's 5/95-percentile-anchored binning
// against naive min-max equal-width binning on a long-tailed practice
// (§5.1.1's motivation).
func AblationBinning(env *Env) Report {
	metric := practices.MetricChangeEvents
	values := env.Data.Values(metric)
	occupancy := func(binned []int, bins int) (distinct int, maxFrac float64) {
		counts := make([]int, bins)
		for _, b := range binned {
			counts[b]++
		}
		max := 0
		for _, c := range counts {
			if c > 0 {
				distinct++
			}
			if c > max {
				max = c
			}
		}
		return distinct, float64(max) / float64(len(binned))
	}
	paperBinned, _ := stats.BinValues(values, 10)
	naive := stats.NewBinnerBounds(stats.Min(values), stats.Max(values), 10)
	naiveBinned := naive.BinAll(values)

	pd, pf := occupancy(paperBinned, 10)
	nd, nf := occupancy(naiveBinned, 10)
	tb := report.NewTable("Binning", "Bins occupied", "Largest bin fraction")
	tb.AddRow("5/95-percentile anchored", fmt.Sprint(pd), fmt.Sprintf("%.2f", pf))
	tb.AddRow("naive min-max", fmt.Sprint(nd), fmt.Sprintf("%.2f", nf))
	var b strings.Builder
	b.WriteString(tb.String())
	fmt.Fprintf(&b, "\nLong-tailed metric (%s): naive binning collapses the bulk into few bins.\n",
		practices.DisplayName(metric))
	return Report{
		ID:    "ablation-binning",
		Title: "Ablation: percentile-anchored vs naive equal-width binning",
		Text:  b.String(),
		Numbers: map[string]float64{
			"paper_max_frac": pf,
			"naive_max_frac": nf,
			"paper_occupied": float64(pd),
			"naive_occupied": float64(nd),
		},
	}
}
