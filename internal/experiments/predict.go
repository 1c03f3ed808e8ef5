package experiments

import (
	"fmt"
	"strings"

	"mpa/internal/dataset"
	"mpa/internal/ml"
	"mpa/internal/practices"
	"mpa/internal/report"
	"mpa/internal/rng"
	"mpa/internal/stats"
)

// learnBins is the paper's bin count for model features (§6.1: 5 bins, not
// 10, because the data is insufficient for fine-grained models).
const learnBins = 5

// cvFolds is the paper's cross-validation fold count.
const cvFolds = 5

// features5 returns the binned feature matrix with 5 bins per metric.
func features5(env *Env) [][]int {
	return env.Data.Bin(learnBins).FeatureMatrix()
}

// trainerDT fits a plain pruned decision tree.
func trainerDT(classes int) ml.Trainer {
	return func(X [][]int, y []int) ml.Classifier {
		return ml.TrainTree(X, y, nil, classes, ml.DefaultTreeConfig())
	}
}

// trainerDTAB fits the paper's boosted tree (15 rounds, last-tree mode).
func trainerDTAB(classes int) ml.Trainer {
	return func(X [][]int, y []int) ml.Classifier {
		return ml.TrainAdaBoost(X, y, classes, ml.DefaultBoostConfig())
	}
}

// oversampler returns the paper's class-specific oversampling for the
// given class count.
func oversampler(classes int) func([][]int, []int) ([][]int, []int) {
	if classes == 2 {
		return ml.Oversample2Class
	}
	return ml.Oversample5Class
}

// trainerDTOS fits a tree on oversampled data.
func trainerDTOS(classes int) ml.Trainer {
	os := oversampler(classes)
	return func(X [][]int, y []int) ml.Classifier {
		ox, oy := os(X, y)
		return ml.TrainTree(ox, oy, nil, classes, ml.DefaultTreeConfig())
	}
}

// trainerDTABOS fits the paper's best 5-class model: oversampling plus
// AdaBoost.
func trainerDTABOS(classes int) ml.Trainer {
	os := oversampler(classes)
	return func(X [][]int, y []int) ml.Classifier {
		ox, oy := os(X, y)
		return ml.TrainAdaBoost(ox, oy, classes, ml.DefaultBoostConfig())
	}
}

// Section61 reproduces the 2-class results of §6.1: the pruned decision
// tree's cross-validation accuracy and per-class precision/recall against
// the majority-class and SVM baselines.
func Section61(env *Env) Report {
	X := features5(env)
	y := env.Data.Labels2()
	dt := ml.CrossValidate(X, y, 2, cvFolds, trainerDT(2), rng.New(env.Params.Seed+101))
	maj := ml.CrossValidate(X, y, 2, cvFolds, func(_ [][]int, ty []int) ml.Classifier {
		return ml.TrainMajority(ty, 2)
	}, rng.New(env.Params.Seed+101))
	svm := ml.CrossValidate(X, y, 2, cvFolds, func(tx [][]int, ty []int) ml.Classifier {
		return ml.TrainSVM(tx, ty, 2, ml.DefaultSVMConfig(), rng.New(env.Params.Seed+202))
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
	y := env.Data.Labels5()
	variants := []struct {
		name    string
		trainer ml.Trainer
	}{
		{"DT", trainerDT(5)},
		{"DT+AB", trainerDTAB(5)},
		{"DT+OS", trainerDTOS(5)},
		{"DT+AB+OS", trainerDTABOS(5)},
	}
	evals := make([]ml.Evaluation, len(variants))
	for i, v := range variants {
		evals[i] = ml.CrossValidate(X, y, 5, cvFolds, v.trainer, rng.New(env.Params.Seed+303))
	}
	numbers := map[string]float64{}
	var b strings.Builder
	for _, section := range []string{"Precision", "Recall"} {
		tb := report.NewTable(append([]string{section}, dataset.Class5Names...)...)
		for i, v := range variants {
			ev := evals[i]
			cells := []string{v.name}
			for c := 0; c < 5; c++ {
				val := ev.Precision[c]
				if section == "Recall" {
					val = ev.Recall[c]
				}
				cells = append(cells, fmt.Sprintf("%.2f", val))
				key := fmt.Sprintf("%s:%s:%s", strings.ToLower(section), v.name, dataset.Class5Names[c])
				numbers[key] = val
			}
			tb.AddRow(cells...)
			numbers["accuracy:"+v.name] = ev.Accuracy
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
	y2 := env.Data.Labels2()
	y5 := env.Data.Labels5()
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
	ox5, oy5 := ml.Oversample5Class(X, env.Data.Labels5())
	t5 := ml.TrainTree(ox5, oy5, nil, 5, ml.DefaultTreeConfig())
	t2 := ml.TrainTree(X, env.Data.Labels2(), nil, 2, ml.DefaultTreeConfig())

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

// binnedWith bins a dataset's features using previously fitted binners
// (training-time bin edges applied to later data, as online prediction
// requires).
func binnedWith(d *dataset.Dataset, binners map[string]*stats.Binner) [][]int {
	rows := make([][]int, d.Len())
	for i := range rows {
		row := make([]int, len(practices.MetricNames))
		for j, metric := range practices.MetricNames {
			row[j] = binners[metric].Bin(d.Cases[i].Metrics[metric])
		}
		rows[i] = row
	}
	return rows
}

// Table9 reproduces online prediction: train on months t-M..t-1, predict
// month t, average accuracy over t (paper Table 9, M in {1, 3, 6, 9}).
func Table9(env *Env) Report {
	window := env.Window()
	histories := []int{1, 3, 6, 9}
	// Skip histories longer than the window allows.
	tb := report.NewTable("M (months)", "5-class accuracy", "2-class accuracy")
	numbers := map[string]float64{}
	for _, M := range histories {
		if M >= len(window) {
			continue
		}
		var acc2, acc5 []float64
		for ti := M; ti < len(window); ti++ {
			t := window[ti]
			train := env.Data.FilterMonths(window[ti-M], window[ti-1])
			test := env.Data.FilterMonths(t, t)
			if train.Len() == 0 || test.Len() == 0 {
				continue
			}
			binned := train.Bin(learnBins)
			trX := binned.FeatureMatrix()
			teX := binnedWith(test, binned.Binners)

			// 2-class: plain pruned tree.
			t2 := ml.TrainTree(trX, train.Labels2(), nil, 2, ml.DefaultTreeConfig())
			correct := 0
			y2 := test.Labels2()
			for i := range teX {
				if t2.Predict(teX[i]) == y2[i] {
					correct++
				}
			}
			acc2 = append(acc2, float64(correct)/float64(len(teX)))

			// 5-class: the best model (oversampling + boosting).
			ox, oy := ml.Oversample5Class(trX, train.Labels5())
			t5 := ml.TrainAdaBoost(ox, oy, 5, ml.DefaultBoostConfig())
			correct = 0
			y5 := test.Labels5()
			for i := range teX {
				if t5.Predict(teX[i]) == y5[i] {
					correct++
				}
			}
			acc5 = append(acc5, float64(correct)/float64(len(teX)))
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
	y := env.Data.Labels5()
	entries := []struct {
		name    string
		trainer ml.Trainer
	}{
		{"Majority", func(_ [][]int, ty []int) ml.Classifier { return ml.TrainMajority(ty, 5) }},
		{"DT", trainerDT(5)},
		{"DT+AB+OS", trainerDTABOS(5)},
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
			return ml.TrainSVM(tx, ty, 5, ml.DefaultSVMConfig(), rng.New(env.Params.Seed+505))
		}},
	}
	tb := report.NewTable("Learner", "Accuracy", "Min class recall", "Mean class recall")
	numbers := map[string]float64{}
	for _, e := range entries {
		ev := ml.CrossValidate(X, y, 5, cvFolds, e.trainer, rng.New(env.Params.Seed+606))
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
