package ml

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"mpa/internal/rng"
)

// xorData builds a dataset where y = x0 XOR x1 — unlearnable by a single
// split, learnable by a depth-2 tree. The cell counts are slightly
// asymmetric: with perfectly balanced XOR both features have exactly zero
// information gain at the root and a greedy C4.5 tree (like the original)
// cannot start splitting.
func xorData() ([][]int, []int) {
	reps := map[[2]int]int{{0, 0}: 30, {0, 1}: 25, {1, 0}: 25, {1, 1}: 20}
	var X [][]int
	var y []int
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for rep := 0; rep < reps[[2]int{a, b}]; rep++ {
				X = append(X, []int{a, b, rep % 3})
				y = append(y, a^b)
			}
		}
	}
	return X, y
}

func TestTreeLearnsSingleFeature(t *testing.T) {
	var X [][]int
	var y []int
	for v := 0; v < 5; v++ {
		for rep := 0; rep < 10; rep++ {
			X = append(X, []int{v, rep % 2})
			label := 0
			if v >= 3 {
				label = 1
			}
			y = append(y, label)
		}
	}
	tree := TrainTree(X, y, nil, 2, TreeConfig{MinLeafFrac: 0.01})
	for i := range X {
		if got := tree.Predict(X[i]); got != y[i] {
			t.Fatalf("Predict(%v) = %d, want %d", X[i], got, y[i])
		}
	}
	if tree.RootFeature() != 0 {
		t.Errorf("root feature = %d, want 0", tree.RootFeature())
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	X, y := xorData()
	tree := TrainTree(X, y, nil, 2, TreeConfig{MinLeafFrac: 0.01})
	for i := range X {
		if tree.Predict(X[i]) != y[i] {
			t.Fatal("tree failed to learn XOR (needs two-level splits)")
		}
	}
	if tree.Depth() < 2 {
		t.Errorf("XOR tree depth = %d, want >= 2", tree.Depth())
	}
}

func TestTreePruningCollapsesRareBranches(t *testing.T) {
	// 99 samples with x0=0 label 0; 1 sample x0=1 label 1. With alpha=5%
	// the rare branch is below threshold and the x0=1 branch becomes a
	// majority leaf — but the majority within that branch is label 1.
	// Use a second feature whose rare value would overfit.
	var X [][]int
	var y []int
	for i := 0; i < 99; i++ {
		X = append(X, []int{0, i % 5})
		y = append(y, 0)
	}
	X = append(X, []int{1, 0})
	y = append(y, 1)
	pruned := TrainTree(X, y, nil, 2, TreeConfig{MinLeafFrac: 0.05})
	// The branch for x0=1 holds 1% of data < 5% threshold: replaced by a
	// leaf whose label is that branch's majority (1). So prediction holds,
	// but the tree must be tiny.
	if pruned.NodeCount() > 4 {
		t.Errorf("pruned tree has %d nodes", pruned.NodeCount())
	}
	unpruned := TrainTree(X, y, nil, 2, TreeConfig{MinLeafFrac: 0})
	if unpruned.NodeCount() < pruned.NodeCount() {
		t.Error("pruning increased node count")
	}
}

func TestTreeWeightsInfluenceSplits(t *testing.T) {
	// Two features both partially predictive; weighting flips which
	// matters. y mostly follows x0, but samples where x1 matters get
	// huge weights.
	X := [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	y := []int{0, 1, 0, 1} // y == x1 exactly
	w := []float64{1, 1, 1, 1}
	tree := TrainTree(X, y, w, 2, TreeConfig{})
	if tree.RootFeature() != 1 {
		t.Fatalf("root = %d, want 1", tree.RootFeature())
	}
	// Give overwhelming weight to two samples that make x0 look perfect
	// (x0=0 -> 0, x0=1 -> 1), drowning the others.
	y2 := []int{0, 0, 1, 1} // y == x0 exactly now
	tree2 := TrainTree(X, y2, w, 2, TreeConfig{})
	if tree2.RootFeature() != 0 {
		t.Fatalf("root = %d, want 0", tree2.RootFeature())
	}
}

func TestTreeFallbackOnUnseenBin(t *testing.T) {
	X := [][]int{{0}, {0}, {1}, {1}, {1}}
	y := []int{0, 0, 1, 1, 1}
	tree := TrainTree(X, y, nil, 2, TreeConfig{})
	// Bin 4 never seen: falls back to node majority (1: three samples).
	if got := tree.Predict([]int{4}); got != 1 {
		t.Errorf("unseen bin predicted %d, want majority 1", got)
	}
}

func TestTreePureLeafShortCircuit(t *testing.T) {
	X := [][]int{{0, 1}, {1, 0}, {2, 1}}
	y := []int{1, 1, 1}
	tree := TrainTree(X, y, nil, 2, TreeConfig{})
	if !tree.root.leaf || tree.Predict([]int{9, 9}) != 1 {
		t.Error("pure dataset should produce a single leaf")
	}
}

func TestTreeRender(t *testing.T) {
	X, y := xorData()
	tree := TrainTree(X, y, nil, 2, TreeConfig{})
	out := tree.Render([]string{"featA", "featB", "noise"}, []string{"neg", "pos"}, 0)
	if !strings.Contains(out, "featA") && !strings.Contains(out, "featB") {
		t.Errorf("render missing feature names:\n%s", out)
	}
	if !strings.Contains(out, "pos") || !strings.Contains(out, "neg") {
		t.Errorf("render missing class names:\n%s", out)
	}
	truncated := tree.Render(nil, nil, 1)
	if len(truncated) >= len(out) {
		t.Error("depth-limited render not shorter")
	}
}

func TestTreeDeterministic(t *testing.T) {
	X, y := xorData()
	a := TrainTree(X, y, nil, 2, TreeConfig{MinLeafFrac: 0.01})
	b := TrainTree(X, y, nil, 2, TreeConfig{MinLeafFrac: 0.01})
	if a.Render(nil, nil, 0) != b.Render(nil, nil, 0) {
		t.Error("tree training not deterministic")
	}
}

func TestTreePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on empty data")
		}
	}()
	TrainTree(nil, nil, nil, 2, TreeConfig{})
}

func TestAdaBoostImprovesMinorityRecall(t *testing.T) {
	// Skewed data: 90% class 0 trivially predictable, 10% class 1
	// requiring a second feature. Boosting should recover class-1 recall
	// relative to a heavily pruned single tree.
	r := rng.New(5)
	var X [][]int
	var y []int
	for i := 0; i < 500; i++ {
		x0 := r.Intn(2)
		x1 := r.Intn(5)
		label := 0
		if x0 == 1 && x1 >= 3 {
			label = 1
		}
		X = append(X, []int{x0, x1})
		y = append(y, label)
	}
	single := TrainTree(X, y, nil, 2, TreeConfig{MinLeafFrac: 0.25})
	boosted := TrainAdaBoost(X, y, 2, BoostConfig{
		Rounds: 15, Tree: TreeConfig{MinLeafFrac: 0.25}, Mode: BoostLastTree})
	recall := func(c Classifier) float64 {
		tp, actual := 0, 0
		for i := range X {
			if y[i] != 1 {
				continue
			}
			actual++
			if c.Predict(X[i]) == 1 {
				tp++
			}
		}
		return float64(tp) / float64(actual)
	}
	if recall(boosted) < recall(single) {
		t.Errorf("boosted recall %.3f < single-tree recall %.3f", recall(boosted), recall(single))
	}
}

func TestAdaBoostEnsembleMode(t *testing.T) {
	X, y := xorData()
	clf := TrainAdaBoost(X, y, 2, BoostConfig{Rounds: 5, Tree: DefaultTreeConfig(), Mode: BoostEnsemble})
	ens, ok := clf.(*Ensemble)
	if !ok {
		t.Fatalf("ensemble mode returned %T", clf)
	}
	if len(ens.trees) < 1 {
		t.Fatal("no rounds retained")
	}
	correct := 0
	for i := range X {
		if ens.Predict(X[i]) == y[i] {
			correct++
		}
	}
	if correct < len(y)*9/10 {
		t.Errorf("ensemble accuracy %d/%d", correct, len(y))
	}
}

func TestAdaBoostPerfectLearnerStops(t *testing.T) {
	// XOR is perfectly learnable: boosting should stop early after a
	// zero-error round rather than run all rounds.
	X, y := xorData()
	clf := TrainAdaBoost(X, y, 2, BoostConfig{Rounds: 15, Tree: DefaultTreeConfig(), Mode: BoostEnsemble})
	if ens := clf.(*Ensemble); len(ens.trees) > 2 {
		t.Errorf("boosting ran %d rounds on separable data", len(ens.trees))
	}
}

func TestOversample(t *testing.T) {
	X := [][]int{{0}, {1}, {2}}
	y := []int{0, 1, 2}
	ox, oy := Oversample(X, y, map[int]int{1: 3, 2: 2})
	if len(oy) != 1+3+2 {
		t.Fatalf("oversampled to %d", len(oy))
	}
	counts := map[int]int{}
	for _, c := range oy {
		counts[c]++
	}
	if counts[0] != 1 || counts[1] != 3 || counts[2] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if len(ox) != len(oy) {
		t.Error("X/y length mismatch")
	}
}

func TestOversamplePaperRatios(t *testing.T) {
	y := []int{0, 1, 0, 1}
	X := [][]int{{0}, {0}, {0}, {0}}
	_, oy := Oversample2Class(X, y)
	ones := 0
	for _, c := range oy {
		if c == 1 {
			ones++
		}
	}
	if ones != 4 { // 2 unhealthy x2
		t.Errorf("2-class oversample ones = %d, want 4", ones)
	}
	y5 := []int{0, 1, 2, 3, 4}
	X5 := [][]int{{0}, {0}, {0}, {0}, {0}}
	_, oy5 := Oversample5Class(X5, y5)
	counts := map[int]int{}
	for _, c := range oy5 {
		counts[c]++
	}
	if counts[0] != 1 || counts[1] != 3 || counts[2] != 3 || counts[3] != 2 || counts[4] != 1 {
		t.Errorf("5-class counts = %v", counts)
	}
}

func TestMajority(t *testing.T) {
	m := TrainMajority([]int{0, 1, 1, 1, 2}, 3)
	if m.Predict([]int{42}) != 1 {
		t.Errorf("majority = %d", m.Predict(nil))
	}
}

// The map-based split search the histogram kernel replaced, kept as a
// reference implementation: for every sample it groups idx by feature
// value in a fresh map, then sums each group's entropy and split
// information in ascending value order. The kernel must choose the same
// feature with a bit-identical gain ratio at every node.

func refTrainTree(X [][]int, y []int, w []float64, classes int, cfg TreeConfig) *Tree {
	if w == nil {
		w = make([]float64, len(y))
		for i := range w {
			w[i] = 1
		}
	}
	var total float64
	for _, wi := range w {
		total += wi
	}
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	used := make([]bool, len(X[0]))
	root := refBuild(X, y, w, idx, used, classes, cfg.MinLeafFrac*total)
	return &Tree{root: root, classes: classes}
}

func refBuild(X [][]int, y []int, w []float64, idx []int, used []bool, classes int, minWeight float64) *treeNode {
	majority, pure, weight := refClassStats(y, w, idx, classes)
	if pure || weight < minWeight {
		return &treeNode{leaf: true, class: majority}
	}
	feature, _, groups, ok := refBestSplit(X, y, w, idx, used, classes)
	if !ok {
		return &treeNode{leaf: true, class: majority}
	}
	node := &treeNode{feature: feature, children: map[int]*treeNode{}, fallback: majority}
	used[feature] = true
	vals := make([]int, 0, len(groups))
	for v := range groups {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	for _, v := range vals {
		child := groups[v]
		if refGroupWeight(w, child) < minWeight {
			m, _, _ := refClassStats(y, w, child, classes)
			node.children[v] = &treeNode{leaf: true, class: m}
			continue
		}
		node.children[v] = refBuild(X, y, w, child, used, classes, minWeight)
	}
	used[feature] = false
	return node
}

func refClassStats(y []int, w []float64, idx []int, classes int) (majority int, pure bool, weight float64) {
	counts := make([]float64, classes)
	for _, i := range idx {
		counts[y[i]] += w[i]
		weight += w[i]
	}
	best := 0.0
	nonzero := 0
	for c, cw := range counts {
		if cw > 0 {
			nonzero++
		}
		if cw > best {
			best = cw
			majority = c
		}
	}
	return majority, nonzero <= 1, weight
}

func refGroupWeight(w []float64, idx []int) float64 {
	var total float64
	for _, i := range idx {
		total += w[i]
	}
	return total
}

func refWeightedEntropy(y []int, w []float64, idx []int, classes int) float64 {
	counts := make([]float64, classes)
	var total float64
	for _, i := range idx {
		counts[y[i]] += w[i]
		total += w[i]
	}
	if total == 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := c / total
		h -= p * math.Log2(p)
	}
	return h
}

func refBestSplit(X [][]int, y []int, w []float64, idx []int, used []bool, classes int) (int, float64, map[int][]int, bool) {
	baseH := refWeightedEntropy(y, w, idx, classes)
	total := refGroupWeight(w, idx)
	bestRatio := 0.0
	bestFeature := -1
	var bestGroups map[int][]int
	for f := range used {
		if used[f] {
			continue
		}
		groups := map[int][]int{}
		for _, i := range idx {
			groups[X[i][f]] = append(groups[X[i][f]], i)
		}
		if len(groups) < 2 {
			continue
		}
		vals := make([]int, 0, len(groups))
		for v := range groups {
			vals = append(vals, v)
		}
		sort.Ints(vals)
		var condH, splitInfo float64
		for _, v := range vals {
			g := groups[v]
			p := refGroupWeight(w, g) / total
			condH += p * refWeightedEntropy(y, w, g, classes)
			splitInfo -= p * math.Log2(p)
		}
		gain := baseH - condH
		if gain <= 1e-12 || splitInfo <= 1e-12 {
			continue
		}
		ratio := gain / splitInfo
		if ratio > bestRatio || (ratio == bestRatio && (bestFeature == -1 || f < bestFeature)) {
			bestRatio = ratio
			bestFeature = f
			bestGroups = groups
		}
	}
	if bestFeature < 0 {
		return 0, 0, nil, false
	}
	return bestFeature, bestRatio, bestGroups, true
}

// splitCase is one seeded random training set for the kernel
// equivalence tests.
type splitCase struct {
	name    string
	X       [][]int
	y       []int
	w       []float64
	classes int
}

// splitCases draws training sets that cover 2 and 5 classes; uniform,
// partly zero, and AdaBoost-reweighted weights; exact gain-ratio ties
// (duplicated and monotonically shifted columns); and negative, sparse,
// and full-int64-range feature values.
func splitCases(seed uint64) []splitCase {
	r := rng.New(seed)
	values := map[string]func() int{
		"binned":   func() int { return r.Intn(5) },
		"negative": func() int { return -3 - 2*r.Intn(4) },
		"sparse": func() int {
			if r.Bool(0.9) {
				return 0
			}
			return r.IntBetween(-1_000_000, 1_000_000)
		},
		"wide": func() int {
			switch r.Intn(4) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int(r.Uint64())
		},
		// Few distinct values over a huge span.
		"spread": func() int { return (r.Intn(3) - 1) * (1 << 60) },
	}
	var cases []splitCase
	for _, kind := range []string{"binned", "negative", "sparse", "wide", "spread"} {
		draw := values[kind]
		for _, classes := range []int{2, 5} {
			n, d := 60+r.Intn(140), 2+r.Intn(6)
			X := make([][]int, n)
			y := make([]int, n)
			for i := range X {
				row := make([]int, d+2)
				for f := 0; f < d; f++ {
					row[f] = draw()
				}
				// Exact ties: column d duplicates column 0 and column
				// d+1 is a monotone shift of column 1, so each pair has
				// the same bins in the same order and bit-identical
				// gain ratios.
				row[d] = row[0]
				row[d+1] = 3*row[1] - 7
				if kind == "wide" || kind == "spread" {
					row[d+1] = row[1] // a shift would overflow
				}
				X[i] = row
				// Labels follow the first features' order, plus noise.
				y[i] = (rankOf(row[0]) + rankOf(row[1]) + r.Intn(2)) % classes
			}
			uniform := make([]float64, n)
			zeros := make([]float64, n)
			for i := range uniform {
				uniform[i] = 1
				if !r.Bool(0.3) {
					zeros[i] = 1
				}
			}
			name := fmt.Sprintf("%s/%dclass", kind, classes)
			cases = append(cases,
				splitCase{name + "/nil", X, y, nil, classes},
				splitCase{name + "/zeros", X, y, zeros, classes},
				splitCase{name + "/boosted", X, y, boostedWeights(X, y, classes, 3), classes},
			)
		}
	}
	return cases
}

// rankOf folds an arbitrary int into a small label contribution that
// follows its sign and magnitude.
func rankOf(v int) int {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return 1
	}
	return 2
}

// boostedWeights runs the AdaBoost reweighting for the given number of
// rounds with reference trees, yielding the irrational, order-sensitive
// weights that boosting feeds later trees.
func boostedWeights(X [][]int, y []int, classes, rounds int) []float64 {
	n := len(y)
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	for round := 0; round < rounds; round++ {
		tree := refTrainTree(X, y, w, classes, TreeConfig{MinLeafFrac: 0.05})
		var err float64
		miss := make([]bool, n)
		for i := range y {
			if tree.Predict(X[i]) != y[i] {
				miss[i] = true
				err += w[i]
			}
		}
		if err <= 1e-12 || err >= 1-1/float64(classes) {
			break
		}
		alpha := math.Log((1-err)/err) + math.Log(float64(classes-1))
		var total float64
		for i := range w {
			if miss[i] {
				w[i] *= math.Exp(alpha)
			}
			total += w[i]
		}
		for i := range w {
			w[i] /= total
		}
	}
	return w
}

// TestSplitKernelMatchesReference checks the histogram kernel against the
// map-based reference on random node subsets and used-feature masks:
// same chosen feature and a bit-identical gain ratio.
func TestSplitKernelMatchesReference(t *testing.T) {
	ties := 0
	for seed := uint64(1); seed <= 4; seed++ {
		for _, tc := range splitCases(seed) {
			r := rng.New(seed*1000 + 7)
			w := tc.w
			if w == nil {
				w = make([]float64, len(tc.y))
				for i := range w {
					w[i] = 1
				}
			}
			tr := binFeatures(tc.X, tc.y).newTrainer(w, tc.classes, TreeConfig{})
			d := len(tc.X[0])
			for trial := 0; trial < 40; trial++ {
				// A node's samples: a random subset in ascending order,
				// as partitioning leaves them.
				var idx []int
				keep := 0.2 + 0.8*r.Float64()
				for i := range tc.y {
					if trial == 0 || r.Bool(keep) {
						idx = append(idx, i)
					}
				}
				used := make([]bool, d)
				for f := range used {
					used[f] = trial > 0 && r.Bool(0.3)
				}
				copy(tr.used, used)
				_, _, weight := tr.classStats(idx)
				gotF, gotRatio, gotOK := tr.bestSplit(idx, weight)
				wantF, wantRatio, _, wantOK := refBestSplit(tc.X, tc.y, w, idx, used, tc.classes)
				if gotOK != wantOK || gotF != wantF || math.Float64bits(gotRatio) != math.Float64bits(wantRatio) {
					t.Fatalf("seed %d %s trial %d: kernel split (f=%d ratio=%v ok=%v), reference (f=%d ratio=%v ok=%v)",
						seed, tc.name, trial, gotF, gotRatio, gotOK, wantF, wantRatio, wantOK)
				}
				// Columns 0/d-2 and 1/d-1 tie exactly; the lower index
				// must win whenever a tied column is chosen.
				if gotOK && (gotF == 0 && !used[d-2] || gotF == 1 && !used[d-1]) {
					ties++
				}
				if gotOK && (gotF == d-2 && !used[0] || gotF == d-1 && !used[1]) {
					t.Fatalf("seed %d %s: tie broken toward the higher column %d", seed, tc.name, gotF)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no exact ratio tie was exercised")
	}
}

// TestTreeKernelMatchesReference trains whole trees with TrainTree and
// with the reference and requires identical structure and predictions,
// including on feature values never seen in training.
func TestTreeKernelMatchesReference(t *testing.T) {
	cfgs := []TreeConfig{{}, DefaultTreeConfig(), {MinLeafFrac: 0.05}}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tc := range splitCases(seed) {
			for _, cfg := range cfgs {
				got := TrainTree(tc.X, tc.y, tc.w, tc.classes, cfg)
				want := refTrainTree(tc.X, tc.y, tc.w, tc.classes, cfg)
				if g, w := got.Render(nil, nil, 0), want.Render(nil, nil, 0); g != w {
					t.Fatalf("seed %d %s %+v: trees differ\nkernel:\n%s\nreference:\n%s", seed, tc.name, cfg, g, w)
				}
				r := rng.New(seed)
				probes := append([][]int(nil), tc.X...)
				for k := 0; k < 50; k++ {
					row := slices.Clone(tc.X[r.Intn(len(tc.X))])
					row[r.Intn(len(row))] = r.IntBetween(-10, 10)
					probes = append(probes, row)
				}
				for _, x := range probes {
					if g, w := got.Predict(x), want.Predict(x); g != w {
						t.Fatalf("seed %d %s %+v: Predict(%v) = %d, reference %d", seed, tc.name, cfg, x, g, w)
					}
				}
			}
		}
	}
}
