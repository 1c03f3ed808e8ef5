package mpa

import (
	"fmt"
	"slices"
	"strconv"

	"mpa/internal/dataset"
	"mpa/internal/experiments"
	"mpa/internal/par"
	"mpa/internal/practices"
)

// This file is the framework's query API: the paper's operator workflow
// — rank practices by mutual information (§5.1), run matched
// quasi-experiments (§5.2), train health models (§6), render experiment
// reports — plus the per-network health and prediction lookups behind
// `mpa serve`. Every query is memoized: the first call computes, later
// calls over the same data return the stored result (shared, so treat it
// as read-only), and a long-lived process never re-runs inference or an
// analysis for a repeated question.
//
// The analyses live once each in internal/experiments and memoize on the
// environment snapshot under keys the reports share — "rank"
// (experiments.MIRanking) and "causal/<metric>" (experiments.Causal) — so
// a report reuses the runs a query made and vice versa. Models
// ("model/<g>"), reports ("experiment/<id>") and per-network answers
// ("health/<month>") go through the same experiments.Memoized, which
// counts every lookup (QueryCacheStats, cache.query.*).
//
// Each query loads the environment snapshot once and answers from it
// alone, so the memo lives on the snapshot: whole-organization answers
// in its whole-organization memo, per-network ones in that network's
// memo. An applied ingest evolves the Env, giving the new snapshot a
// fresh whole-organization memo and fresh memos for exactly the touched
// networks, while untouched networks share theirs and stay warm (pinned
// by TestIngestCacheInvalidationPrecision). An answer can therefore never
// name data it was not computed from, and an old snapshot's answers are
// freed with it. The memo is single-flight per key (cache.Memo):
// concurrent callers of one key compute once, distinct keys compute in
// parallel, and a compute may call another memoized query.

// Memoized returns the value stored under key in the current snapshot's
// memo (network's memo for a per-network value, the organization's for
// "") and builds it on a miss. build answers its queries through the
// framework it is handed, which is pinned to that snapshot, so the value
// derives from exactly the data of the snapshot that stores it, and is
// dropped with it: an ingest replaces the organization's memo, and the
// memo of every network it touches. A caller stores what it derives
// from the queries' answers, such as their encoded form; the answers
// themselves still come from the query methods. The lookup is counted
// like a query's (QueryCacheStats) and shares their single flight.
// Errors are not stored. A stored value is shared: treat it as
// read-only. key must not be one the queries use ("rank", "causal/…",
// "model/…", "experiment/…", "health/…").
func Memoized[T any](f *Framework, network, key string, build func(*Framework) (T, error)) (T, error) {
	env := f.environment()
	return experiments.Memoized(env, network, key, func() (T, error) {
		return build(f.at(env))
	})
}

// at returns a framework that answers every query from env: the view a
// Memoized build queries through. It only answers queries; it has no
// stream hub and never ingests.
func (f *Framework) at(env *experiments.Env) *Framework {
	q := &Framework{cacheDir: f.cacheDir, answers: f.answers}
	q.env.Store(env)
	return q
}

// CacheStats counts one framework's query memo activity: a hit is a call
// that found a finished or in-flight answer, a miss a call that computed
// one.
type CacheStats struct {
	MemHits   int64
	MemMisses int64
}

// QueryCacheStats returns the framework's memo counts so far, across
// ingests, counting the lookups reports make as well as the queries'; the
// invalidation-precision tests assert on deltas of them around an ingest.
func (f *Framework) QueryCacheStats() CacheStats {
	h, m := f.environment().MemoCounts()
	return CacheStats{MemHits: h, MemMisses: m}
}

// PracticeDependence is one practice's statistical dependence with
// network health: Metric, and MI, its average monthly mutual information
// with health in bits.
type PracticeDependence = experiments.MIEntry

// RankPractices returns every practice ordered by decreasing statistical
// dependence with network health (paper Table 3 generalized to all 28),
// equal-MI practices in catalogue order.
func (f *Framework) RankPractices() []PracticeDependence {
	return experiments.MIRanking(f.environment())
}

// RankPracticesCached is RankPractices.
//
// Deprecated: RankPractices is memoized; call it instead.
func (f *Framework) RankPracticesCached() []PracticeDependence { return f.RankPractices() }

// KnownMetric reports whether metric is one of the 28 practice metrics.
func KnownMetric(metric string) bool { return slices.Contains(practices.MetricNames, metric) }

// AnalyzeCausal runs the paper's matched-design quasi-experiment for one
// treatment practice, controlling for the remaining 27 practice metrics.
// Unknown metrics error without touching the memo.
func (f *Framework) AnalyzeCausal(metric string) (*CausalResult, error) {
	if !KnownMetric(metric) {
		return nil, fmt.Errorf("mpa: unknown practice metric %q", metric)
	}
	return experiments.Causal(f.environment(), metric)
}

// TrainHealthModel trains a health model on the framework's full dataset
// with the paper's best options for the granularity: the first call per
// granularity trains (one "train_model" stage), later calls return the
// same model.
func (f *Framework) TrainHealthModel(g Granularity) (*HealthModel, error) {
	return f.healthModel(f.environment(), g)
}

// healthModel is TrainHealthModel over one snapshot.
func (f *Framework) healthModel(env *experiments.Env, g Granularity) (*HealthModel, error) {
	return experiments.Memoized(env, "", modelKey(g), func() (*HealthModel, error) {
		return f.TrainHealthModelOn(env.Data, g, BestOptions(g))
	})
}

// modelKey is the memo key of a granularity's health model; the two
// supported ones are constants, so a warm lookup builds no string.
func modelKey(g Granularity) string {
	switch g {
	case TwoClass:
		return "model/2"
	case FiveClass:
		return "model/5"
	}
	return "model/" + strconv.Itoa(int(g))
}

// Experiment runs one of the paper's tables/figures by ID (see
// ExperimentIDs) and reports whether the ID was known. Unknown IDs are
// never memoized.
func (f *Framework) Experiment(id string) (Report, bool) {
	if !slices.Contains(ExperimentIDs(), id) {
		return Report{}, false
	}
	env := f.environment()
	r, _ := experiments.Memoized(env, "", "experiment/"+id, func() (Report, error) {
		r, _ := experiments.Run(env, id)
		return r, nil
	})
	return r, true
}

// NetworkHealth is one network-month's health summary: the observed
// ticket count with its class labels, plus that month's inferred change
// count. It is the payload of the per-network warm query and of the
// "delta" events the ingest stream pushes.
type NetworkHealth struct {
	Network    string  `json:"network"`
	Month      string  `json:"month"`
	Tickets    int     `json:"tickets"`
	Class2     int     `json:"class2"`
	Class2Name string  `json:"class2_name"`
	Class5     int     `json:"class5"`
	Class5Name string  `json:"class5_name"`
	Changes    int     `json:"changes"`
	ChangeFreq float64 `json:"change_frequency"`
}

// networkHealth assembles a NetworkHealth from one environment snapshot.
func networkHealth(env *experiments.Env, network string, m Month) (*NetworkHealth, error) {
	rows, ok := env.Analysis[network]
	if !ok {
		return nil, fmt.Errorf("mpa: unknown network %q", network)
	}
	for i := range rows {
		if rows[i].Month != m {
			continue
		}
		c, ok := env.Case(network, m)
		if !ok {
			break
		}
		tickets := c.Tickets
		return &NetworkHealth{
			Network:    network,
			Month:      m.String(),
			Tickets:    tickets,
			Class2:     dataset.Class2(tickets),
			Class2Name: dataset.Class2Names[dataset.Class2(tickets)],
			Class5:     dataset.Class5(tickets),
			Class5Name: dataset.Class5Names[dataset.Class5(tickets)],
			Changes:    len(rows[i].Changes),
			ChangeFreq: rows[i].Metrics[practices.MetricChangeEvents],
		}, nil
	}
	return nil, fmt.Errorf("mpa: no analysis for network %q in %s", network, m)
}

// NetworkHealthCached returns one network-month's health summary,
// memoized in the network's own memo: an ingest touching other networks
// leaves this network's entries warm, while an ingest touching this one
// invalidates exactly them. Errors (unknown network or month) are never
// cached.
func (f *Framework) NetworkHealthCached(network string, m Month) (*NetworkHealth, error) {
	env := f.environment()
	return experiments.Memoized(env, network, "health/"+m.String(), func() (*NetworkHealth, error) {
		return networkHealth(env, network, m)
	})
}

// NetworkPrediction is one network-month's health prediction at both
// class granularities, alongside the observed outcome.
type NetworkPrediction struct {
	Network string
	Month   Month
	// Tickets is the observed non-maintenance ticket count.
	Tickets int
	// Predicted2/Predicted5 are the model predictions; the names are the
	// paper's class labels.
	Predicted2     int
	Predicted2Name string
	Predicted5     int
	Predicted5Name string
	// Actual2/Actual5 are the classes the observed tickets fall in.
	Actual2 int
	Actual5 int
	// Accuracy2/Accuracy5 are the two models' cross-validated accuracies.
	Accuracy2 float64
	Accuracy5 float64
}

// CheckCase returns the error PredictNetworkMonth answers for network and
// month m when the current snapshot has no case for them, and nil when it
// has one. It reads only the snapshot's case index, so a caller can turn
// away a request that cannot succeed before it does any other work.
func (f *Framework) CheckCase(network string, m Month) error {
	if _, ok := f.environment().Case(network, m); !ok {
		return noCase(network, m)
	}
	return nil
}

func noCase(network string, m Month) error {
	return fmt.Errorf("mpa: no case for network %q in %s", network, m)
}

// PredictNetworkMonth predicts one network-month's health class from its
// inferred practices, using the memoized models (trained on first use).
// The case and both models come from one snapshot. It errors when the
// network-month is not in the dataset.
func (f *Framework) PredictNetworkMonth(network string, m Month) (*NetworkPrediction, error) {
	env := f.environment()
	c, ok := env.Case(network, m)
	if !ok {
		return nil, noCase(network, m)
	}
	// Both models come from the memo. Until both are stored they are
	// looked up as two pool jobs, so cold ones train side by side; a warm
	// read looks them up in place and starts no goroutines.
	var m2, m5 *HealthModel
	var err error
	if experiments.Stored(env, "", modelKey(TwoClass)) && experiments.Stored(env, "", modelKey(FiveClass)) {
		if m2, err = f.healthModel(env, TwoClass); err == nil {
			m5, err = f.healthModel(env, FiveClass)
		}
	} else {
		var models []*HealthModel
		models, err = par.Map([]Granularity{TwoClass, FiveClass}, func(_ int, g Granularity) (*HealthModel, error) {
			return f.healthModel(env, g)
		})
		if err == nil {
			m2, m5 = models[0], models[1]
		}
	}
	if err != nil {
		return nil, err
	}
	p2 := m2.Predict(c.Metrics)
	p5 := m5.Predict(c.Metrics)
	return &NetworkPrediction{
		Network:        network,
		Month:          m,
		Tickets:        c.Tickets,
		Predicted2:     p2,
		Predicted2Name: TwoClass.ClassNames()[p2],
		Predicted5:     p5,
		Predicted5Name: FiveClass.ClassNames()[p5],
		Actual2:        dataset.Class2(c.Tickets),
		Actual5:        dataset.Class5(c.Tickets),
		Accuracy2:      m2.Quality().Accuracy,
		Accuracy5:      m5.Quality().Accuracy,
	}, nil
}
