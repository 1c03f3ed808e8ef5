package ml

import (
	"mpa/internal/obs"
	"mpa/internal/par"
	"mpa/internal/rng"
)

// Trainer fits a classifier on a training fold. Skew remedies
// (oversampling, boosting) must be applied inside the trainer so they see
// only training data.
//
// CrossValidate trains folds concurrently, so a Trainer must be safe to
// call from multiple goroutines: any randomness has to come from a
// generator created inside the call (the rng.New(seed) pattern every
// trainer in this repository uses), never from state shared across calls.
type Trainer func(X [][]int, y []int) Classifier

// CrossValidate runs stratified k-fold cross-validation and returns the
// pooled evaluation (paper §6.1: 5-fold). Folds are stratified so each
// fold preserves the skewed class mix, and the assignment is drawn from r
// for reproducibility — before the folds fan out onto worker goroutines,
// so the evaluation is identical at every worker count.
func CrossValidate(X [][]int, y []int, classes, k int, train Trainer, r *rng.RNG) Evaluation {
	folds := StratifiedFolds(y, classes, k, r)
	type foldEval struct {
		ev Evaluation
		ok bool
	}
	pt := obs.StartProgress("cv", int64(k))
	evals, _ := par.Map(make([]struct{}, k), func(f int, _ struct{}) (foldEval, error) {
		var trX, teX [][]int
		var trY, teY []int
		for i := range y {
			if folds[i] == f {
				teX = append(teX, X[i])
				teY = append(teY, y[i])
			} else {
				trX = append(trX, X[i])
				trY = append(trY, y[i])
			}
		}
		if len(teY) == 0 || len(trY) == 0 {
			pt.Add(1)
			return foldEval{}, nil
		}
		clf := train(trX, trY)
		pred := make([]int, len(teY))
		for i := range teX {
			pred[i] = clf.Predict(teX[i])
		}
		obs.GetCounter("ml.cv_folds").Add(1)
		pt.Add(1)
		return foldEval{ev: Evaluate(pred, teY, classes), ok: true}, nil
	})
	pt.Done()
	pooled := make([]Evaluation, 0, k)
	for _, fe := range evals {
		if fe.ok {
			pooled = append(pooled, fe.ev)
		}
	}
	return Merge(pooled, classes)
}

// StratifiedFolds assigns each sample a fold in [0, k) such that each
// class's samples are spread evenly across folds.
func StratifiedFolds(y []int, classes, k int, r *rng.RNG) []int {
	folds := make([]int, len(y))
	for c := 0; c < classes; c++ {
		var idx []int
		for i, yi := range y {
			if yi == c {
				idx = append(idx, i)
			}
		}
		r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for pos, i := range idx {
			folds[i] = pos % k
		}
	}
	return folds
}
