// Package ml implements the predictive-modeling stack of MPA (paper §6):
// C4.5-style decision trees over binned practice metrics, AdaBoost,
// minority-class oversampling, and the baselines the paper compares
// against (majority-class, linear SVM, balanced and weighted random
// forests), plus stratified cross-validation and the standard
// classification metrics.
package ml

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mpa/internal/obs"
)

// Classifier predicts a class label from a binned feature vector.
type Classifier interface {
	Predict(x []int) int
}

// TreeConfig controls decision-tree training.
type TreeConfig struct {
	// MinLeafFrac is the paper's pruning threshold alpha: any branch
	// reached by less than this fraction of the training weight is
	// replaced by a majority leaf. The paper sets alpha to 1% of all
	// data.
	MinLeafFrac float64
}

// DefaultTreeConfig returns the paper's settings (alpha = 1%).
func DefaultTreeConfig() TreeConfig {
	return TreeConfig{MinLeafFrac: 0.01}
}

// treeNode is an internal or leaf node.
type treeNode struct {
	// Leaf fields.
	leaf  bool
	class int
	// Internal fields.
	feature  int
	children map[int]*treeNode
	fallback int // majority class at this node, for unseen bins
}

// Tree is a trained C4.5-style decision tree over categorical (binned)
// features. Splits are multiway on feature value; the split criterion is
// gain ratio (information gain normalized by split information), Quinlan's
// refinement over plain information gain.
type Tree struct {
	root    *treeNode
	classes int
}

// TrainTree builds a decision tree from binned features X, labels y, and
// optional per-sample weights w (nil = uniform). classes is the number of
// distinct labels. Training is deterministic.
func TrainTree(X [][]int, y []int, w []float64, classes int, cfg TreeConfig) *Tree {
	return binFeatures(X, y).train(w, classes, cfg)
}

// binnedSet is a training set with every feature remapped to dense bin
// codes. It is read-only once built, so one set can train many trees:
// AdaBoost remaps its inputs once for all its rounds.
type binnedSet struct {
	y []int
	// codes[f][i] is the rank of X[i][f] among feature f's distinct
	// values, and values[f][code] maps it back, so ascending code order
	// is ascending value order.
	codes  [][]int32
	values [][]int
	bins   int // the most distinct values of any feature
}

func binFeatures(X [][]int, y []int) *binnedSet {
	if len(X) == 0 || len(X) != len(y) {
		panic("ml: TrainTree with empty or mismatched data")
	}
	n, d := len(X), len(X[0])
	s := &binnedSet{y: y, codes: make([][]int32, d), values: make([][]int, d)}
	codes := make([]int32, n*d)
	col := make([]int, n)
	for f := 0; f < d; f++ {
		for i, row := range X {
			col[i] = row[f]
		}
		slices.Sort(col)
		vals := slices.Clone(slices.Compact(col))
		fc := codes[f*n : (f+1)*n]
		for i, row := range X {
			fc[i] = int32(sort.SearchInts(vals, row[f]))
		}
		s.codes[f], s.values[f] = fc, vals
		s.bins = max(s.bins, len(vals))
	}
	return s
}

// train fits one tree to the set under sample weights w (nil = uniform).
func (s *binnedSet) train(w []float64, classes int, cfg TreeConfig) *Tree {
	tr := s.newTrainer(w, classes, cfg)
	idx := make([]int, len(s.y))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{classes: classes, root: tr.build(idx)}
	obs.GetCounter("ml.tree_nodes").Add(int64(t.NodeCount()))
	obs.GetCounter("ml.trees_trained").Add(1)
	return t
}

func (s *binnedSet) newTrainer(w []float64, classes int, cfg TreeConfig) *trainer {
	n := len(s.y)
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1
		}
	}
	var total float64
	for _, wi := range w {
		total += wi
	}
	return &trainer{
		binnedSet: s,
		w:         w,
		classes:   classes,
		minWeight: cfg.MinLeafFrac * total,
		used:      make([]bool, len(s.codes)),
		counts:    make([]float64, s.bins*classes),
		binW:      make([]float64, s.bins),
		binN:      make([]int, s.bins),
		seen:      make([]bool, s.bins),
		touched:   make([]int32, 0, s.bins),
		classW:    make([]float64, classes),
		tmp:       make([]int, n),
	}
}

// trainer is the state of one tree's training: the binned set, the
// weights, and one scratch histogram reused by every node and feature.
// It is never shared, so concurrent training calls (cross-validation
// folds, forest trees) need no synchronization.
type trainer struct {
	*binnedSet
	w         []float64
	classes   int
	minWeight float64
	used      []bool

	// Scratch. counts[b*classes+c] is the weight of class c in bin b and
	// binW[b] the bin's total weight; seen marks the bins present at the
	// current node, which histogram lists in touched. partition counts
	// samples per bin in binN and stages idx in tmp.
	counts  []float64
	binW    []float64
	binN    []int
	seen    []bool
	touched []int32
	classW  []float64
	tmp     []int
}

// build recursively constructs the tree over the samples in idx. It
// reorders idx in place: each child's samples end up contiguous, in
// their original relative order.
func (tr *trainer) build(idx []int) *treeNode {
	majority, pure, weight := tr.classStats(idx)
	if pure || weight < tr.minWeight {
		return &treeNode{leaf: true, class: majority}
	}
	feature, _, ok := tr.bestSplit(idx, weight)
	if !ok {
		return &treeNode{leaf: true, class: majority}
	}
	kids := tr.partition(idx, feature)
	node := &treeNode{feature: feature, children: make(map[int]*treeNode, len(kids)), fallback: majority}
	tr.used[feature] = true
	for _, k := range kids {
		child := idx[k.start:k.end]
		// The paper's alpha-pruning: branches reached by too little data
		// become majority leaves.
		if k.weight < tr.minWeight {
			m, _, _ := tr.classStats(child)
			node.children[k.value] = &treeNode{leaf: true, class: m}
			continue
		}
		node.children[k.value] = tr.build(child)
	}
	tr.used[feature] = false
	return node
}

// classStats returns the majority class, purity, and total weight of the
// samples in idx, leaving the per-class weights in tr.classW.
func (tr *trainer) classStats(idx []int) (majority int, pure bool, weight float64) {
	counts := tr.classW
	clear(counts)
	for _, i := range idx {
		counts[tr.y[i]] += tr.w[i]
		weight += tr.w[i]
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

// entropy returns the entropy of the class weights counts, which sum to
// total.
func entropy(counts []float64, total float64) float64 {
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

// bestSplit finds the unused feature with the highest gain ratio over
// the samples in idx, whose class weights classStats has just left in
// tr.classW and whose total weight is total. It returns false when no
// feature yields positive information gain.
//
// A feature's split information comes first, from the bin weights
// alone. Its gain is baseH - condH with condH >= 0 (every class share
// is at most 1, so every entropy term is non-negative under rounding),
// so baseH/splitInfo bounds its ratio from above; when that bound does
// not beat bestRatio the feature cannot win — a tie goes to the lower
// feature, already seen — and its class entropies are skipped.
func (tr *trainer) bestSplit(idx []int, total float64) (int, float64, bool) {
	baseH := entropy(tr.classW, total)
	classes := tr.classes
	bestRatio := 0.0
	bestFeature := -1
	for f, used := range tr.used {
		if used {
			continue
		}
		bins := tr.histogram(idx, f)
		if len(bins) < 2 {
			continue
		}
		var splitInfo float64
		for _, b := range bins {
			p := tr.binW[b] / total
			splitInfo -= p * math.Log2(p)
		}
		if splitInfo <= 1e-12 || baseH/splitInfo <= bestRatio {
			continue
		}
		var condH float64
		for _, b := range bins {
			gw := tr.binW[b]
			p := gw / total
			condH += p * entropy(tr.counts[int(b)*classes:int(b+1)*classes], gw)
		}
		gain := baseH - condH
		if gain <= 1e-12 {
			continue
		}
		ratio := gain / splitInfo
		if ratio > bestRatio || (ratio == bestRatio && (bestFeature == -1 || f < bestFeature)) {
			bestRatio = ratio
			bestFeature = f
		}
	}
	if bestFeature < 0 {
		return 0, 0, false
	}
	return bestFeature, bestRatio, true
}

// histogram fills the scratch with feature f's class histogram over the
// samples in idx and returns the bins present, in ascending order. It
// clears the feature's cells, accumulates, then scans the feature's bins
// in code order: a feature has few bins, so the scan is cheaper than
// sorting the bins in the order samples reached them.
//
// Every cell sums its weights in idx order, and bestSplit adds the
// per-bin terms in ascending bin order. Float addition is not
// associative, so any other order would perturb gain ratios in their
// last bits and could flip near-tie splits between otherwise identical
// runs.
func (tr *trainer) histogram(idx []int, f int) []int32 {
	classes := tr.classes
	y, w, codes := tr.y, tr.w, tr.codes[f]
	nb := len(tr.values[f])
	counts, binW, seen := tr.counts[:nb*classes], tr.binW[:nb], tr.seen[:nb]
	clear(counts)
	clear(binW)
	clear(seen)
	for _, i := range idx {
		b := int(codes[i])
		seen[b] = true
		counts[b*classes+y[i]] += w[i]
		binW[b] += w[i]
	}
	bins := tr.touched[:0]
	for b, ok := range seen {
		if ok {
			bins = append(bins, int32(b))
		}
	}
	return bins
}

// child is one branch of a split: the feature value it matches, its
// samples' range in the partitioned idx, and their total weight.
type child struct {
	value      int
	start, end int
	weight     float64
}

// partition stably reorders idx so that the samples of each bin of
// feature f are contiguous, bins in ascending order, and returns the
// branches.
func (tr *trainer) partition(idx []int, f int) []child {
	bins := tr.histogram(idx, f)
	codes := tr.codes[f]
	next := tr.binN // each bin's size, then its next write position
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

// Predict returns the predicted class for a feature vector. Feature values
// unseen at a node fall back to the node's majority class.
func (t *Tree) Predict(x []int) int {
	n := t.root
	for !n.leaf {
		child, ok := n.children[x[n.feature]]
		if !ok {
			return n.fallback
		}
		n = child
	}
	return n.class
}

// Depth returns the tree's depth (a lone leaf has depth 0).
func (t *Tree) Depth() int { return depth(t.root) }

func depth(n *treeNode) int {
	if n.leaf {
		return 0
	}
	max := 0
	for _, c := range n.children {
		if d := depth(c); d > max {
			max = d
		}
	}
	return max + 1
}

// NodeCount returns the total number of nodes.
func (t *Tree) NodeCount() int { return count(t.root) }

func count(n *treeNode) int {
	if n.leaf {
		return 1
	}
	total := 1
	for _, c := range n.children {
		total += count(c)
	}
	return total
}

// RootFeature returns the index of the root split feature, or -1 if the
// tree is a single leaf. The paper notes the root is the practice with the
// strongest statistical dependence (Figure 10 discussion).
func (t *Tree) RootFeature() int {
	if t.root.leaf {
		return -1
	}
	return t.root.feature
}

// Render pretty-prints the tree's top levels (Figure 10 style).
// featureNames and classNames label splits and leaves; maxDepth bounds the
// rendering (0 = full tree).
func (t *Tree) Render(featureNames, classNames []string, maxDepth int) string {
	var b strings.Builder
	render(&b, t.root, featureNames, classNames, "", maxDepth, 0)
	return b.String()
}

func render(b *strings.Builder, n *treeNode, feats, classes []string, indent string, maxDepth, d int) {
	if n.leaf {
		fmt.Fprintf(b, "%s-> %s\n", indent, className(classes, n.class))
		return
	}
	if maxDepth > 0 && d >= maxDepth {
		fmt.Fprintf(b, "%s[%s] ...\n", indent, featName(feats, n.feature))
		return
	}
	fmt.Fprintf(b, "%s[%s]\n", indent, featName(feats, n.feature))
	vals := make([]int, 0, len(n.children))
	for v := range n.children {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	for _, v := range vals {
		fmt.Fprintf(b, "%s  = bin %d:\n", indent, v)
		render(b, n.children[v], feats, classes, indent+"    ", maxDepth, d+1)
	}
}

func featName(names []string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return fmt.Sprintf("f%d", i)
}

func className(names []string, c int) string {
	if c < len(names) {
		return names[c]
	}
	return fmt.Sprintf("class%d", c)
}
