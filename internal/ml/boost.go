package ml

import (
	"math"

	"mpa/internal/obs"
)

// BoostMode selects what AdaBoost returns as the final learner.
type BoostMode int

const (
	// BoostEnsemble votes across all iterations' trees weighted by their
	// stage coefficients (standard SAMME).
	BoostEnsemble BoostMode = iota
	// BoostLastTree returns the single tree built from the final
	// iteration's re-weighted examples — the paper's formulation ("the
	// final learner (i.e., decision tree) is built from the last
	// iteration's weighted examples", §6.1).
	BoostLastTree
)

// BoostConfig controls AdaBoost training.
type BoostConfig struct {
	Rounds int // the paper uses 15
	Tree   TreeConfig
	Mode   BoostMode
	// Obs, when set, records per-round boost_rounds and tree_nodes
	// counters on the span.
	Obs *obs.Span
}

// DefaultBoostConfig returns the paper's round count (15) with ensemble
// voting. The paper's prose describes keeping only the last iteration's
// tree (BoostLastTree); a single adversarially-reweighted tree is often
// weaker than the stage-weighted vote, so the default uses the standard
// SAMME ensemble, which reproduces the paper's reported "minor
// improvement" of AdaBoost over a plain tree. The last-tree variant stays
// available for ablation.
func DefaultBoostConfig() BoostConfig {
	return BoostConfig{Rounds: 15, Tree: DefaultTreeConfig(), Mode: BoostEnsemble}
}

// Ensemble is a stage-weighted vote over trees (SAMME).
type Ensemble struct {
	trees   []*Tree
	alphas  []float64
	classes int
}

// Predict returns the class with the largest total stage weight. The
// tally lives on the stack for up to maxStackClasses classes.
func (e *Ensemble) Predict(x []int) int {
	var stack [maxStackClasses]float64
	var votes []float64
	if e.classes <= maxStackClasses {
		votes = stack[:e.classes]
	} else {
		votes = make([]float64, e.classes)
	}
	for i, t := range e.trees {
		votes[t.Predict(x)] += e.alphas[i]
	}
	best := 0
	for c := 1; c < e.classes; c++ {
		if votes[c] > votes[best] {
			best = c
		}
	}
	return best
}

// maxStackClasses covers the paper's 2- and 5-class schemes.
const maxStackClasses = 8

// TrainAdaBoost runs multiclass AdaBoost (SAMME: Zhu et al.) over decision
// trees. Each round increases the weight of misclassified examples and
// decreases the weight of correct ones, then refits. With
// BoostMode == BoostLastTree the returned classifier is the single tree of
// the last round, per the paper; with BoostEnsemble it is the weighted
// vote.
func TrainAdaBoost(X [][]int, y []int, classes int, cfg BoostConfig) Classifier {
	n := len(y)
	if n == 0 {
		panic("ml: TrainAdaBoost with no data")
	}
	if cfg.Rounds < 1 {
		cfg.Rounds = 1
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 / float64(n)
	}
	ens := &Ensemble{classes: classes}
	set := binFeatures(X, y)
	var lastTree *Tree
	for round := 0; round < cfg.Rounds; round++ {
		tree := set.train(w, classes, cfg.Tree)
		lastTree = tree
		cfg.Obs.Count("boost_rounds", 1)
		cfg.Obs.Count("tree_nodes", float64(tree.NodeCount()))
		obs.GetCounter("ml.boost_rounds").Add(1)
		var err float64
		miss := make([]bool, n)
		for i := range y {
			if tree.Predict(X[i]) != y[i] {
				miss[i] = true
				err += w[i]
			}
		}
		// SAMME stage weight; the K-1 term admits weak learners with
		// error below (K-1)/K rather than 1/2.
		if err <= 1e-12 {
			ens.trees = append(ens.trees, tree)
			ens.alphas = append(ens.alphas, 10) // effectively decisive
			break
		}
		if err >= 1-1/float64(classes) {
			// Worse than chance: stop boosting, keep what we have.
			if len(ens.trees) == 0 {
				ens.trees = append(ens.trees, tree)
				ens.alphas = append(ens.alphas, 1)
			}
			break
		}
		alpha := math.Log((1-err)/err) + math.Log(float64(classes-1))
		ens.trees = append(ens.trees, tree)
		ens.alphas = append(ens.alphas, alpha)
		// Reweight and renormalize.
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
	if cfg.Mode == BoostLastTree {
		return lastTree
	}
	return ens
}
