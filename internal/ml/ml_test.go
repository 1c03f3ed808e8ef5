package ml

import (
	"math"
	"testing"

	"mpa/internal/rng"
)

func TestEvaluate(t *testing.T) {
	truth := []int{0, 0, 1, 1, 1}
	pred := []int{0, 1, 1, 1, 0}
	ev := Evaluate(pred, truth, 2)
	if math.Abs(ev.Accuracy-0.6) > 1e-12 {
		t.Errorf("accuracy = %v", ev.Accuracy)
	}
	// class 1: predicted 3 times, 2 correct; actual 3, 2 found.
	if math.Abs(ev.Precision[1]-2.0/3) > 1e-12 {
		t.Errorf("precision[1] = %v", ev.Precision[1])
	}
	if math.Abs(ev.Recall[1]-2.0/3) > 1e-12 {
		t.Errorf("recall[1] = %v", ev.Recall[1])
	}
	if ev.Confusion[0][1] != 1 || ev.Confusion[1][0] != 1 {
		t.Errorf("confusion = %v", ev.Confusion)
	}
}

func TestEvaluateEmptyClass(t *testing.T) {
	ev := Evaluate([]int{0, 0}, []int{0, 0}, 3)
	if ev.Precision[2] != 0 || ev.Recall[2] != 0 {
		t.Error("absent class should have zero precision/recall")
	}
	if ev.Accuracy != 1 {
		t.Errorf("accuracy = %v", ev.Accuracy)
	}
}

func TestMergePoolsConfusions(t *testing.T) {
	a := Evaluate([]int{0, 1}, []int{0, 0}, 2)
	b := Evaluate([]int{1, 1}, []int{1, 1}, 2)
	m := Merge([]Evaluation{a, b}, 2)
	if m.N != 4 {
		t.Fatalf("merged N = %d", m.N)
	}
	if math.Abs(m.Accuracy-0.75) > 1e-12 {
		t.Errorf("merged accuracy = %v", m.Accuracy)
	}
}

func TestStratifiedFolds(t *testing.T) {
	// 100 samples: 90 class 0, 10 class 1 — every fold must hold exactly
	// 2 minority samples with k=5.
	y := make([]int, 100)
	for i := 90; i < 100; i++ {
		y[i] = 1
	}
	folds := StratifiedFolds(y, 2, 5, rng.New(1))
	perFold := map[int]int{}
	for i, f := range folds {
		if f < 0 || f >= 5 {
			t.Fatalf("fold %d out of range", f)
		}
		if y[i] == 1 {
			perFold[f]++
		}
	}
	for f := 0; f < 5; f++ {
		if perFold[f] != 2 {
			t.Errorf("fold %d has %d minority samples, want 2", f, perFold[f])
		}
	}
}

func TestCrossValidateTree(t *testing.T) {
	// Learnable task: y depends on x0 only.
	r := rng.New(2)
	var X [][]int
	var y []int
	for i := 0; i < 300; i++ {
		x0 := r.Intn(4)
		X = append(X, []int{x0, r.Intn(4)})
		label := 0
		if x0 >= 2 {
			label = 1
		}
		y = append(y, label)
	}
	ev := CrossValidate(X, y, 2, 5, func(tx [][]int, ty []int) Classifier {
		return TrainTree(tx, ty, nil, 2, DefaultTreeConfig())
	}, rng.New(3))
	if ev.Accuracy < 0.95 {
		t.Errorf("CV accuracy = %v on separable data", ev.Accuracy)
	}
	if ev.N != 300 {
		t.Errorf("pooled N = %d", ev.N)
	}
}

// TestBoostedTreeDeterministic guards the fixed accumulation order in
// bestSplit: boosting produces irrational sample weights whose sums are
// sensitive to addition order, so if gain ratios were ever summed in
// anything but ascending bin order, near-tie splits could flip between
// these two identically-seeded runs.
func TestBoostedTreeDeterministic(t *testing.T) {
	build := func() ([][]int, []int) {
		r := rng.New(7)
		var X [][]int
		var y []int
		for i := 0; i < 400; i++ {
			row := []int{r.Intn(8), r.Intn(8), r.Intn(8), r.Intn(8), r.Intn(8)}
			X = append(X, row)
			y = append(y, (row[0]+row[2]+r.Intn(3))%3)
		}
		return X, y
	}
	X, y := build()
	a := TrainAdaBoost(X, y, 3, DefaultBoostConfig())
	b := TrainAdaBoost(X, y, 3, DefaultBoostConfig())
	for i := range X {
		if pa, pb := a.Predict(X[i]), b.Predict(X[i]); pa != pb {
			t.Fatalf("identical training runs disagree at sample %d: %d vs %d", i, pa, pb)
		}
	}
}

func TestCrossValidateBeatsOrMatchesMajority(t *testing.T) {
	r := rng.New(4)
	var X [][]int
	var y []int
	for i := 0; i < 400; i++ {
		x := []int{r.Intn(5), r.Intn(5), r.Intn(5)}
		label := 0
		if x[0]+x[1] >= 6 {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
	}
	tree := CrossValidate(X, y, 2, 5, func(tx [][]int, ty []int) Classifier {
		return TrainTree(tx, ty, nil, 2, DefaultTreeConfig())
	}, rng.New(5))
	maj := CrossValidate(X, y, 2, 5, func(tx [][]int, ty []int) Classifier {
		return TrainMajority(ty, 2)
	}, rng.New(5))
	if tree.Accuracy <= maj.Accuracy {
		t.Errorf("tree CV %.3f <= majority CV %.3f", tree.Accuracy, maj.Accuracy)
	}
}

func TestSVMSeparable(t *testing.T) {
	// Linearly separable: y = 1 iff x0 >= 3.
	var X [][]int
	var y []int
	for v := 0; v < 6; v++ {
		for rep := 0; rep < 20; rep++ {
			X = append(X, []int{v})
			label := 0
			if v >= 3 {
				label = 1
			}
			y = append(y, label)
		}
	}
	svm := TrainSVM(X, y, 2, rng.New(6))
	correct := 0
	for i := range X {
		if svm.Predict(X[i]) == y[i] {
			correct++
		}
	}
	if frac := float64(correct) / float64(len(y)); frac < 0.9 {
		t.Errorf("SVM accuracy %.3f on separable data", frac)
	}
}

func TestSVMDeterministicGivenSeed(t *testing.T) {
	X := [][]int{{0}, {1}, {2}, {3}}
	y := []int{0, 0, 1, 1}
	a := TrainSVM(X, y, 2, rng.New(7))
	b := TrainSVM(X, y, 2, rng.New(7))
	for i := range a.weights {
		for j := range a.weights[i] {
			if a.weights[i][j] != b.weights[i][j] {
				t.Fatal("SVM training not deterministic under fixed seed")
			}
		}
	}
}

func TestForestVariants(t *testing.T) {
	r := rng.New(8)
	var X [][]int
	var y []int
	for i := 0; i < 400; i++ {
		x := []int{r.Intn(5), r.Intn(5), r.Intn(3)}
		label := 0
		if x[0] >= 3 && x[1] >= 2 {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
	}
	// The concept needs both informative features, so sample 2 per tree.
	// The balanced variant trades accuracy on the skewed majority for
	// minority recall, so its accuracy bar is lower.
	minAcc := map[ForestVariant]float64{ForestPlain: 0.85, ForestBalanced: 0.6, ForestWeighted: 0.85}
	for _, variant := range []ForestVariant{ForestPlain, ForestBalanced, ForestWeighted} {
		cfg := DefaultForestConfig()
		cfg.Variant = variant
		cfg.Trees = 25
		cfg.Features = 2
		f := TrainForest(X, y, 2, cfg, rng.New(9))
		if f.Size() != 25 {
			t.Fatalf("variant %d: %d trees", variant, f.Size())
		}
		correct := 0
		for i := range X {
			if f.Predict(X[i]) == y[i] {
				correct++
			}
		}
		if frac := float64(correct) / float64(len(y)); frac < minAcc[variant] {
			t.Errorf("variant %d accuracy %.3f", variant, frac)
		}
	}
}

func TestBalancedForestBoostsMinorityRecall(t *testing.T) {
	r := rng.New(10)
	var X [][]int
	var y []int
	for i := 0; i < 600; i++ {
		x := []int{r.Intn(6), r.Intn(6)}
		label := 0
		// Minority region ~8% of space, slightly noisy.
		if x[0] == 5 && x[1] >= 3 {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
	}
	recall := func(f *Forest) float64 {
		tp, act := 0, 0
		for i := range X {
			if y[i] != 1 {
				continue
			}
			act++
			if f.Predict(X[i]) == 1 {
				tp++
			}
		}
		if act == 0 {
			return 0
		}
		return float64(tp) / float64(act)
	}
	plainCfg := DefaultForestConfig()
	plainCfg.Trees = 30
	plainCfg.Tree.MinLeafFrac = 0.1 // weak trees: imbalance hurts
	balCfg := plainCfg
	balCfg.Variant = ForestBalanced
	plain := TrainForest(X, y, 2, plainCfg, rng.New(11))
	bal := TrainForest(X, y, 2, balCfg, rng.New(11))
	if recall(bal) < recall(plain) {
		t.Errorf("balanced recall %.3f < plain recall %.3f", recall(bal), recall(plain))
	}
}

func TestLogRegSeparable(t *testing.T) {
	var X [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		v := float64(i % 10)
		X = append(X, []float64{v, 3})
		label := 0
		if v >= 5 {
			label = 1
		}
		y = append(y, label)
	}
	m := TrainLogReg(X, y)
	if p := m.Prob([]float64{9, 3}); p < 0.8 {
		t.Errorf("P(high) = %v", p)
	}
	if p := m.Prob([]float64{0, 3}); p > 0.2 {
		t.Errorf("P(low) = %v", p)
	}
	// Probabilities must be monotone in the predictive feature.
	prev := -1.0
	for v := 0.0; v <= 9; v++ {
		p := m.Prob([]float64{v, 3})
		if p < prev {
			t.Fatalf("probability not monotone at %v", v)
		}
		prev = p
	}
}

func TestLogRegConstantFeatureHarmless(t *testing.T) {
	X := [][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}}
	y := []int{0, 0, 1, 1}
	m := TrainLogReg(X, y)
	if p := m.Prob([]float64{4, 7}); math.IsNaN(p) || p < 0.5 {
		t.Errorf("prob with constant feature = %v", p)
	}
}

func TestLogRegBalancedPriorGivesHalf(t *testing.T) {
	// Pure noise with balanced labels: probabilities near 0.5.
	X := [][]float64{{1}, {1}, {1}, {1}}
	y := []int{0, 1, 0, 1}
	m := TrainLogReg(X, y)
	if p := m.Prob([]float64{1}); math.Abs(p-0.5) > 0.05 {
		t.Errorf("noise prob = %v, want ~0.5", p)
	}
}

func TestSigmoidStable(t *testing.T) {
	if s := sigmoid(1000); s != 1 {
		t.Errorf("sigmoid(1000) = %v", s)
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", s)
	}
}
