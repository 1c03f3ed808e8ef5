package mpa

import (
	"fmt"

	"mpa/internal/dataset"
	"mpa/internal/ml"
	"mpa/internal/obs"
	"mpa/internal/practices"
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
	// Folds is the cross-validation fold count (default 5).
	Folds int
	// Seed drives fold assignment (default: dataset-independent 1).
	Seed uint64
}

// BestOptions returns the paper's best configuration for the granularity:
// a plain pruned tree for 2 classes, boosting + oversampling for 5.
func BestOptions(g Granularity) ModelOptions {
	if g == TwoClass {
		return ModelOptions{Folds: 5, Seed: 1}
	}
	return ModelOptions{Boost: true, Oversample: true, Folds: 5, Seed: 1}
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

// Granularity returns the model's class scheme.
func (m *HealthModel) Granularity() Granularity { return m.granularity }

// Quality returns the cross-validated training quality.
func (m *HealthModel) Quality() ModelQuality { return m.quality }

// Predict returns the predicted health class for a network-month's
// practice metrics.
func (m *HealthModel) Predict(metrics Metrics) int {
	row := make([]int, len(practices.MetricNames))
	for j, name := range practices.MetricNames {
		row[j] = m.binners[name].Bin(metrics[name])
	}
	return m.classifier.Predict(row)
}

// PredictClassName returns the predicted class label.
func (m *HealthModel) PredictClassName(metrics Metrics) string {
	return m.granularity.ClassNames()[m.Predict(metrics)]
}

// TrainHealthModelOn trains a health model on an explicit dataset slice
// (e.g. a FilterMonths window for online prediction) with the given
// options.
func (f *Framework) TrainHealthModelOn(d *Dataset, g Granularity, opts ModelOptions) (*HealthModel, error) {
	if d.Len() == 0 {
		return nil, fmt.Errorf("mpa: empty training dataset")
	}
	if g != TwoClass && g != FiveClass {
		return nil, fmt.Errorf("mpa: unsupported granularity %d", g)
	}
	if opts.Folds <= 1 {
		opts.Folds = 5
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	sp := f.environment().Obs.Start("train_model")
	defer sp.End()
	sp.Count("cases", float64(d.Len()))
	sp.Count("cv_folds", float64(opts.Folds))
	binned := d.Bin(5)
	X := binned.FeatureMatrix()
	y := d.Labels2()
	if g == FiveClass {
		y = d.Labels5()
	}
	classes := int(g)

	trainer := func(tx [][]int, ty []int) ml.Classifier {
		if opts.Oversample {
			if g == TwoClass {
				tx, ty = ml.Oversample2Class(tx, ty)
			} else {
				tx, ty = ml.Oversample5Class(tx, ty)
			}
		}
		if opts.Boost {
			bcfg := ml.DefaultBoostConfig()
			bcfg.Obs = sp
			return ml.TrainAdaBoost(tx, ty, classes, bcfg)
		}
		t := ml.TrainTree(tx, ty, nil, classes, ml.DefaultTreeConfig())
		sp.Count("tree_nodes", float64(t.NodeCount()))
		return t
	}

	ev := ml.CrossValidate(X, y, classes, opts.Folds, trainer, rng.New(opts.Seed))
	maj := ml.CrossValidate(X, y, classes, opts.Folds, func(_ [][]int, ty []int) ml.Classifier {
		return ml.TrainMajority(ty, classes)
	}, rng.New(opts.Seed))
	obs.Logger().Debug("health model trained",
		"classes", classes, "cases", d.Len(), "accuracy", ev.Accuracy)

	return &HealthModel{
		granularity: g,
		classifier:  trainer(X, y),
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

// PredictOnline reproduces the paper's online protocol (§6.2, Table 9):
// for each month t with at least history prior months available, train on
// months t-history..t-1 and predict month t. It returns per-month
// accuracies.
func (f *Framework) PredictOnline(g Granularity, history int) ([]OnlinePrediction, error) {
	if history < 1 {
		return nil, fmt.Errorf("mpa: history must be >= 1")
	}
	env := f.environment() // one snapshot for the whole protocol
	window := env.Window()
	var out []OnlinePrediction
	for ti := history; ti < len(window); ti++ {
		train := env.Data.FilterMonths(window[ti-history], window[ti-1])
		test := env.Data.FilterMonths(window[ti], window[ti])
		if train.Len() == 0 || test.Len() == 0 {
			continue
		}
		model, err := f.TrainHealthModelOn(train, g, BestOptions(g))
		if err != nil {
			return nil, err
		}
		correct := 0
		for _, c := range test.Cases {
			want := dataset.Class2(c.Tickets)
			if g == FiveClass {
				want = dataset.Class5(c.Tickets)
			}
			if model.Predict(c.Metrics) == want {
				correct++
			}
		}
		out = append(out, OnlinePrediction{
			Month:    window[ti],
			Accuracy: float64(correct) / float64(test.Len()),
			Cases:    test.Len(),
		})
	}
	return out, nil
}

// WhatIfResult reports how an adjusted set of practices changes a health
// prediction (the paper's §6.2 use case: "will combining configuration
// changes into fewer, larger changes improve network health?").
type WhatIfResult struct {
	Baseline     int
	BaselineName string
	Adjusted     int
	AdjustedName string
}

// Improved reports whether the adjustment moves the prediction to a
// healthier class (lower label).
func (r WhatIfResult) Improved() bool { return r.Adjusted < r.Baseline }

// WhatIf predicts health for the given practices and for a copy with the
// adjustments applied (absolute values keyed by metric name), returning
// both predictions.
func (m *HealthModel) WhatIf(metrics Metrics, adjustments Metrics) WhatIfResult {
	adjusted := Metrics{}
	for k, v := range metrics {
		adjusted[k] = v
	}
	for k, v := range adjustments {
		adjusted[k] = v
	}
	names := m.granularity.ClassNames()
	base := m.Predict(metrics)
	adj := m.Predict(adjusted)
	return WhatIfResult{
		Baseline: base, BaselineName: names[base],
		Adjusted: adj, AdjustedName: names[adj],
	}
}
