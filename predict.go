package mpa

import (
	"fmt"

	"mpa/internal/dataset"
	"mpa/internal/experiments"
	"mpa/internal/ml"
	"mpa/internal/obs"
	"mpa/internal/par"
	"mpa/internal/rng"
	"mpa/internal/stats"
)

// Granularity selects the health-class scheme (paper §6.1).
type Granularity int

const (
	// TwoClass distinguishes healthy (<=1 ticket/month) from unhealthy.
	TwoClass Granularity = 2
	// FiveClass distinguishes excellent, good, moderate, poor, and very
	// poor health.
	FiveClass Granularity = 5
)

// ClassNames returns the class labels for the granularity.
func (g Granularity) ClassNames() []string {
	if g == TwoClass {
		return dataset.Class2Names
	}
	return dataset.Class5Names
}

// ModelOptions configures health-model training.
type ModelOptions struct {
	// Boost enables AdaBoost (15 rounds, paper §6.1).
	Boost bool
	// Oversample enables the paper's minority-class oversampling.
	Oversample bool
}

// modelFoldSeed drives TrainHealthModelOn's fold assignment: fixed and
// dataset-independent, so a model's quality is reproducible.
const modelFoldSeed = 1

// BestOptions returns the paper's best configuration for the granularity
// (experiments.BestLearner): a plain pruned tree for 2 classes, boosting +
// oversampling for 5.
func BestOptions(g Granularity) ModelOptions {
	l := experiments.BestLearner(int(g))
	return ModelOptions{Boost: l.Boost, Oversample: l.Oversample}
}

// ModelQuality reports cross-validated model quality (paper §6.1).
type ModelQuality struct {
	Accuracy  float64
	Precision []float64 // per class
	Recall    []float64 // per class
	// MajorityAccuracy is the majority-class baseline on the same folds.
	MajorityAccuracy float64
}

// HealthModel is a trained health predictor bound to the training-time
// binning, so it can be applied to future months (paper §6.2).
type HealthModel struct {
	granularity Granularity
	classifier  ml.Classifier
	binners     map[string]*stats.Binner
	quality     ModelQuality
}

// Quality returns the cross-validated training quality.
func (m *HealthModel) Quality() ModelQuality { return m.quality }

// Predict returns the predicted health class for a network-month's
// practice metrics.
func (m *HealthModel) Predict(metrics Metrics) int {
	return m.classifier.Predict(dataset.BinRow(m.binners, metrics))
}

// PredictClassName returns the predicted class label.
func (m *HealthModel) PredictClassName(metrics Metrics) string {
	return m.granularity.ClassNames()[m.Predict(metrics)]
}

// TrainHealthModelOn trains a health model on an explicit dataset slice
// (e.g. a FilterMonths window for online prediction) with the given
// options, reporting its 5-fold cross-validated quality.
func (f *Framework) TrainHealthModelOn(d *Dataset, g Granularity, opts ModelOptions) (*HealthModel, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("mpa: empty training dataset")
	}
	if g != TwoClass && g != FiveClass {
		return nil, fmt.Errorf("mpa: unsupported granularity %d", g)
	}
	sp := f.environment().Obs.Start("train_model")
	defer sp.End()
	sp.Count("cases", float64(d.Len()))
	sp.Count("cv_folds", experiments.CVFolds)
	binned := d.Bin(5)
	X := binned.FeatureMatrix()
	classes := int(g)
	y := d.Labels(classes)
	trainer := experiments.Learner{Classes: classes, Boost: opts.Boost, Oversample: opts.Oversample}.Trainer(sp)

	// The final model trains beside its cross-validation: the two jobs
	// share only the read-only X and y.
	var ev, maj ml.Evaluation
	var clf ml.Classifier
	par.ForEach([]func(){
		func() {
			ev = ml.CrossValidate(X, y, classes, experiments.CVFolds, trainer, rng.New(modelFoldSeed))
			maj = ml.CrossValidate(X, y, classes, experiments.CVFolds, func(_ [][]int, ty []int) ml.Classifier {
				return ml.TrainMajority(ty, classes)
			}, rng.New(modelFoldSeed))
		},
		func() { clf = trainer(X, y) },
	}, func(_ int, job func()) error {
		job()
		return nil
	})
	obs.Logger().Debug("health model trained",
		"classes", classes, "cases", d.Len(), "accuracy", ev.Accuracy)

	return &HealthModel{
		granularity: g,
		classifier:  clf,
		binners:     binned.Binners,
		quality: ModelQuality{
			Accuracy:         ev.Accuracy,
			Precision:        ev.Precision,
			Recall:           ev.Recall,
			MajorityAccuracy: maj.Accuracy,
		},
	}, nil
}

// OnlinePrediction is one month's out-of-sample prediction result.
type OnlinePrediction struct {
	Month    Month
	Accuracy float64
	Cases    int
}

// PredictOnline reproduces the paper's online protocol (§6.2, Table 9)
// with the granularity's best learner: for each month t with at least
// history prior months available, train on months t-history..t-1 and
// predict month t. It returns per-month accuracies; Table 9 reports their
// mean.
func (f *Framework) PredictOnline(g Granularity, history int) ([]OnlinePrediction, error) {
	if history < 1 {
		return nil, fmt.Errorf("mpa: history must be >= 1")
	}
	if g != TwoClass && g != FiveClass {
		return nil, fmt.Errorf("mpa: unsupported granularity %d", g)
	}
	var out []OnlinePrediction
	for _, om := range experiments.Online(f.environment(), history, int(g)) {
		out = append(out, OnlinePrediction{Month: om.Month, Accuracy: om.Accuracy[0], Cases: om.Cases})
	}
	return out, nil
}
