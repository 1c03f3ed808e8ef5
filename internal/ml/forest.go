package ml

import (
	"math"

	"mpa/internal/par"
	"mpa/internal/rng"
)

// ForestVariant selects how a random forest handles class imbalance
// (footnote 2 of the paper: neither balanced nor weighted random forests
// beat boosting + oversampling).
type ForestVariant int

const (
	// ForestPlain is a standard bootstrap forest.
	ForestPlain ForestVariant = iota
	// ForestBalanced downsamples majority classes in each bootstrap to
	// the minority class size (Chen et al.'s balanced random forest).
	ForestBalanced
	// ForestWeighted applies inverse-frequency class weights when
	// training each tree (weighted random forest).
	ForestWeighted
)

// ForestConfig controls random-forest training.
type ForestConfig struct {
	Trees    int
	Variant  ForestVariant
	Tree     TreeConfig
	Features int // features sampled per tree; 0 = sqrt(d)
}

// DefaultForestConfig returns a 50-tree plain forest.
func DefaultForestConfig() ForestConfig {
	return ForestConfig{Trees: 50, Tree: TreeConfig{MinLeafFrac: 0.005}}
}

// Forest is a random forest: majority vote over trees trained on
// bootstrap samples with random feature subsets.
type Forest struct {
	trees   []*Tree
	masks   [][]int // feature indexes per tree
	classes int
}

// TrainForest fits a random forest. r drives bootstrap and feature
// sampling; the same seed reproduces the forest.
func TrainForest(X [][]int, y []int, classes int, cfg ForestConfig, r *rng.RNG) *Forest {
	if len(X) == 0 {
		panic("ml: TrainForest with no data")
	}
	d := len(X[0])
	nFeat := cfg.Features
	if nFeat <= 0 {
		nFeat = int(math.Sqrt(float64(d)))
		if nFeat < 1 {
			nFeat = 1
		}
	}
	if cfg.Trees < 1 {
		cfg.Trees = 1
	}
	f := &Forest{classes: classes}
	byClass := make([][]int, classes)
	for i, yi := range y {
		byClass[yi] = append(byClass[yi], i)
	}
	minority := len(y)
	for _, idx := range byClass {
		if len(idx) > 0 && len(idx) < minority {
			minority = len(idx)
		}
	}

	// Draw every tree's bootstrap sample and feature mask sequentially,
	// in the exact order the original single-loop implementation consumed
	// r — the expensive part, TrainTree, holds no randomness and fans out
	// below, so the forest is byte-identical at any worker count.
	type treePlan struct {
		sample []int
		mask   []int
	}
	plans := make([]treePlan, cfg.Trees)
	for t := range plans {
		var sample []int
		switch cfg.Variant {
		case ForestBalanced:
			// Draw minority-size bootstrap from each class.
			for _, idx := range byClass {
				if len(idx) == 0 {
					continue
				}
				for k := 0; k < minority; k++ {
					sample = append(sample, idx[r.Intn(len(idx))])
				}
			}
		default:
			for k := 0; k < len(y); k++ {
				sample = append(sample, r.Intn(len(y)))
			}
		}
		perm := r.Perm(d)
		plans[t] = treePlan{sample: sample, mask: perm[:nFeat]}
	}

	f.trees = make([]*Tree, cfg.Trees)
	f.masks = make([][]int, cfg.Trees)
	par.ForEach(plans, func(t int, plan treePlan) error {
		subX := make([][]int, len(plan.sample))
		subY := make([]int, len(plan.sample))
		subW := make([]float64, len(plan.sample))
		for i, src := range plan.sample {
			row := make([]int, nFeat)
			for j, feat := range plan.mask {
				row[j] = X[src][feat]
			}
			subX[i] = row
			subY[i] = y[src]
			subW[i] = 1
			if cfg.Variant == ForestWeighted {
				subW[i] = float64(len(y)) / (float64(classes) * float64(len(byClass[y[src]])))
			}
		}
		f.trees[t] = TrainTree(subX, subY, subW, classes, cfg.Tree)
		f.masks[t] = plan.mask
		return nil
	})
	return f
}

// Predict returns the majority vote across trees.
func (f *Forest) Predict(x []int) int {
	votes := make([]int, f.classes)
	for t, tree := range f.trees {
		row := make([]int, len(f.masks[t]))
		for j, feat := range f.masks[t] {
			row[j] = x[feat]
		}
		votes[tree.Predict(row)]++
	}
	best := 0
	for c := 1; c < f.classes; c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// Size returns the number of trees.
func (f *Forest) Size() int { return len(f.trees) }
