package ml

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// The split search as it stood before bestSplit learned to skip features
// whose ratio bound cannot win and histogram stopped sorting its bins,
// kept as a reference: it scores every unused feature in full and sorts
// the bins each histogram touched. TrainTree must build the same tree,
// node for node.

func referenceTrainTree(X [][]int, y []int, w []float64, classes int, cfg TreeConfig) *Tree {
	tr := binFeatures(X, y).newTrainer(w, classes, cfg)
	idx := make([]int, len(y))
	for i := range idx {
		idx[i] = i
	}
	return &Tree{classes: classes, root: tr.referenceBuild(idx)}
}

func (tr *trainer) referenceBuild(idx []int) *treeNode {
	majority, pure, weight := tr.classStats(idx)
	if pure || weight < tr.minWeight {
		return &treeNode{leaf: true, class: majority}
	}
	feature, ok := tr.referenceBestSplit(idx, weight)
	if !ok {
		return &treeNode{leaf: true, class: majority}
	}
	kids := tr.referencePartition(idx, feature)
	node := &treeNode{feature: feature, children: make(map[int]*treeNode, len(kids)), fallback: majority}
	tr.used[feature] = true
	for _, k := range kids {
		child := idx[k.start:k.end]
		if k.weight < tr.minWeight {
			m, _, _ := tr.classStats(child)
			node.children[k.value] = &treeNode{leaf: true, class: m}
			continue
		}
		node.children[k.value] = tr.referenceBuild(child)
	}
	tr.used[feature] = false
	return node
}

func (tr *trainer) referenceBestSplit(idx []int, total float64) (int, bool) {
	baseH := entropy(tr.classW, total)
	classes := tr.classes
	bestRatio := 0.0
	bestFeature := -1
	for f, used := range tr.used {
		if used {
			continue
		}
		bins := tr.referenceHistogram(idx, f)
		if len(bins) < 2 {
			continue
		}
		var condH, splitInfo float64
		for _, b := range bins {
			gw := tr.binW[b]
			p := gw / total
			condH += p * entropy(tr.counts[int(b)*classes:int(b+1)*classes], gw)
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
		}
	}
	return bestFeature, bestFeature >= 0
}

func (tr *trainer) referenceHistogram(idx []int, f int) []int32 {
	classes := tr.classes
	y, w, codes := tr.y, tr.w, tr.codes[f]
	counts, binW, seen := tr.counts, tr.binW, tr.seen
	bins := tr.touched[:0]
	for _, i := range idx {
		b := int(codes[i])
		if !seen[b] {
			seen[b] = true
			bins = append(bins, int32(b))
			clear(counts[b*classes : (b+1)*classes])
			binW[b] = 0
		}
		counts[b*classes+y[i]] += w[i]
		binW[b] += w[i]
	}
	for _, b := range bins {
		seen[b] = false
	}
	slices.Sort(bins)
	return bins
}

func (tr *trainer) referencePartition(idx []int, f int) []child {
	bins := tr.referenceHistogram(idx, f)
	codes := tr.codes[f]
	next := tr.binN
	for _, b := range bins {
		next[b] = 0
	}
	for _, i := range idx {
		next[codes[i]]++
	}
	kids := make([]child, len(bins))
	start := 0
	for k, b := range bins {
		kids[k] = child{value: tr.values[f][b], start: start, end: start + next[b], weight: tr.binW[b]}
		next[b] = start
		start = kids[k].end
	}
	tmp := tr.tmp[:len(idx)]
	copy(tmp, idx)
	for _, i := range tmp {
		b := codes[i]
		idx[next[b]] = i
		next[b]++
	}
	return kids
}

// treeDiff returns where two trees first differ — a node's kind, leaf
// class, split feature, fallback class or set of child values — or ""
// when they are equal node for node.
func treeDiff(a, b *treeNode, path string) string {
	switch {
	case a.leaf != b.leaf:
		return fmt.Sprintf("%s: leaf %v vs %v", path, a.leaf, b.leaf)
	case a.leaf && a.class != b.class:
		return fmt.Sprintf("%s: leaf class %d vs %d", path, a.class, b.class)
	case a.leaf:
		return ""
	case a.feature != b.feature:
		return fmt.Sprintf("%s: split feature %d vs %d", path, a.feature, b.feature)
	case a.fallback != b.fallback:
		return fmt.Sprintf("%s: fallback %d vs %d", path, a.fallback, b.fallback)
	case len(a.children) != len(b.children):
		return fmt.Sprintf("%s: %d children vs %d", path, len(a.children), len(b.children))
	}
	for v, ac := range a.children {
		bc, ok := b.children[v]
		if !ok {
			return fmt.Sprintf("%s: child %d missing", path, v)
		}
		if d := treeDiff(ac, bc, fmt.Sprintf("%s/f%d=%d", path, a.feature, v)); d != "" {
			return d
		}
	}
	return ""
}

// splitFeatures returns every feature a tree splits on.
func splitFeatures(n *treeNode, into map[int]bool) map[int]bool {
	if !n.leaf {
		into[n.feature] = true
		for _, c := range n.children {
			splitFeatures(c, into)
		}
	}
	return into
}

// requireReferenceTree trains one tree with TrainTree and with the
// reference and fails on the first node where they differ.
func requireReferenceTree(t *testing.T, name string, X [][]int, y []int, w []float64, classes int, cfg TreeConfig) *Tree {
	t.Helper()
	got := TrainTree(X, y, w, classes, cfg)
	want := referenceTrainTree(X, y, w, classes, cfg)
	if d := treeDiff(got.root, want.root, "root"); d != "" {
		t.Fatalf("%s %+v: TrainTree differs from the reference at %s", name, cfg, d)
	}
	return got
}

// TestTreeMatchesReferenceKernel trains the 480×28 fixture, a copy with
// every column duplicated (exact gain-ratio ties) and a copy with
// single-bin columns, under several pruning thresholds.
func TestTreeMatchesReferenceKernel(t *testing.T) {
	X, y := treeFixture()
	d := len(X[0])
	dup := make([][]int, len(X))
	flat := make([][]int, len(X))
	for i, row := range X {
		dup[i] = append(slices.Clone(row), row...)
		flat[i] = slices.Clone(row)
		for f := 1; f < d; f += 3 {
			flat[i][f] = 2
		}
	}
	for _, cfg := range []TreeConfig{{}, DefaultTreeConfig(), {MinLeafFrac: 0.05}} {
		requireReferenceTree(t, "fixture", X, y, nil, 5, cfg)
		// A duplicated column ties its original exactly; the lower
		// index must win every time.
		tree := requireReferenceTree(t, "duplicated", dup, y, nil, 5, cfg)
		for f := range splitFeatures(tree.root, map[int]bool{}) {
			if f >= d {
				t.Errorf("duplicated %+v: split on column %d, a copy of column %d", cfg, f, f-d)
			}
		}
		tree = requireReferenceTree(t, "single-bin", flat, y, nil, 5, cfg)
		for f := range splitFeatures(tree.root, map[int]bool{}) {
			if f%3 == 1 {
				t.Errorf("single-bin %+v: split on constant column %d", cfg, f)
			}
		}
	}
}

// TestAdaBoostRoundsMatchReferenceKernel replays TrainAdaBoost's
// reweighting from the ensemble it returned and checks every round's tree
// against the reference trained on that round's weights.
func TestAdaBoostRoundsMatchReferenceKernel(t *testing.T) {
	X, y := treeFixture()
	oX, oy := Oversample5Class(X, y)
	for _, tc := range []struct {
		name string
		X    [][]int
		y    []int
	}{{"fixture", X, y}, {"oversampled", oX, oy}} {
		cfg := DefaultBoostConfig()
		ens := TrainAdaBoost(tc.X, tc.y, 5, cfg).(*Ensemble)
		if len(ens.trees) < 2 {
			t.Fatalf("%s: boosting stopped after %d rounds", tc.name, len(ens.trees))
		}
		n := len(tc.y)
		w := make([]float64, n)
		for i := range w {
			w[i] = 1 / float64(n)
		}
		for r, tree := range ens.trees {
			want := referenceTrainTree(tc.X, tc.y, w, 5, cfg.Tree)
			if d := treeDiff(tree.root, want.root, "root"); d != "" {
				t.Fatalf("%s round %d: boosted tree differs from the reference at %s", tc.name, r, d)
			}
			var total float64
			for i := range w {
				if tree.Predict(tc.X[i]) != tc.y[i] {
					w[i] *= math.Exp(ens.alphas[r])
				}
				total += w[i]
			}
			for i := range w {
				w[i] /= total
			}
		}
	}
}
