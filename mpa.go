// Package mpa is a management plane analytics framework: a full
// reproduction of "Management Plane Analytics" (Gember-Jacobson, Wu, Li,
// Akella, Mahajan — IMC 2015).
//
// MPA helps an organization that operates a collection of networks
// understand and improve its management plane. It infers management
// practices — design practices like hardware heterogeneity and routing
// structure, and operational practices like change frequency, typing, and
// automation — from three commonly available data sources: inventory
// records, device-configuration snapshots, and trouble-ticket logs. It
// then (i) identifies which practices have a statistical and causal
// relationship with network health, via mutual information and
// propensity-score-matched quasi-experiments, and (ii) learns predictive
// models of health from practices, handling the heavy healthy-network
// skew with oversampling and boosting.
//
// The simplest entry point is a synthetic organization:
//
//	f, err := mpa.NewSynthetic(mpa.SmallConfig(1))
//	top := f.RankPractices()[:5]          // strongest dependences
//	res, _ := f.AnalyzeCausal(top[0].Metric)
//	model, _ := f.TrainHealthModel(mpa.TwoClass)
//
// Organizations with their own data construct the three substrates
// (netmodel.Inventory, nms.Archive, ticketing.Log re-exported here) and
// call New.
package mpa

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mpa/internal/cache"
	"mpa/internal/dataset"
	"mpa/internal/experiments"
	"mpa/internal/ingest"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/par"
	"mpa/internal/practices"
	"mpa/internal/qed"
	"mpa/internal/ticketing"
)

// Re-exported substrate types, so callers can assemble their own data
// sources and name every result type without reaching into internal
// packages.
type (
	// Month is a calendar month (UTC).
	Month = months.Month
	// Inventory is the organization's device/network inventory.
	Inventory = netmodel.Inventory
	// Network is one managed network.
	Network = netmodel.Network
	// Device is one inventory record.
	Device = netmodel.Device
	// Archive is the configuration-snapshot archive (NMS).
	Archive = nms.Archive
	// Snapshot is one archived device configuration.
	Snapshot = nms.Snapshot
	// TicketLog is the trouble-ticket history.
	TicketLog = ticketing.Log
	// Ticket is one trouble ticket.
	Ticket = ticketing.Ticket
	// Dataset is the network-month case matrix.
	Dataset = dataset.Dataset
	// Case is one network-month observation.
	Case = dataset.Case
	// Metrics maps practice-metric names to values.
	Metrics = practices.Metrics
	// CausalResult is a matched-design analysis of one practice.
	CausalResult = qed.Result
	// CausalPoint is one comparison point of a causal analysis.
	CausalPoint = qed.PointResult
	// Report is a rendered experiment result.
	Report = experiments.Report
	// CacheConfig places the content-addressed disk cache
	// (Config.Cache): with Dir set, per-network analyses are stored on
	// disk under it, so re-runs and restarts skip all unchanged
	// per-network work, and so are the organization-wide answers served
	// through OnDisk (answers.go). Dir is the only setting; Enabled is
	// deprecated and ignored. The zero value disables the cache; caching
	// never changes results.
	CacheConfig = cache.Config
	// IngestUpdate is one month of new snapshots and tickets in the
	// streaming wire format (see Framework.Ingest and internal/ingest).
	IngestUpdate = ingest.Update
	// IngestEvent is one server-sent event pushed to stream subscribers
	// after an applied update.
	IngestEvent = ingest.Event
)

// MetricNames lists the 28 practice metrics (paper Table 1).
var MetricNames = practices.MetricNames

// DisplayName returns the paper-style name of a practice metric.
func DisplayName(metric string) string { return practices.DisplayName(metric) }

// MetricCategory returns "design" or "operational" for a practice metric.
func MetricCategory(metric string) string { return practices.Category(metric) }

// Config parameterizes a synthetic organization.
type Config struct {
	// Seed drives all generation; identical seeds reproduce identical
	// organizations and analyses.
	Seed uint64
	// Networks is the number of networks (the paper's OSP has 850+);
	// zero means 60.
	Networks int
	// Start and End bound the study window, inclusive; if either is
	// zero, the window is the paper's 17 months.
	Start, End Month
	// Cache places the on-disk cache of per-network inference. The zero
	// value disables it. Results are byte-identical with the cache cold,
	// warm, or disabled.
	Cache CacheConfig
}

// SetWorkers sets the one process-wide worker count that every parallel
// stage (generation, inference, cross-validation folds, forest trees,
// experiment runs, fleet fan-out) runs at; n <= 0 returns to the
// default, runtime.GOMAXPROCS(0), read when each pool starts.
// Every result is byte-identical at every worker count.
func SetWorkers(n int) { par.SetWorkers(n) }

// DefaultConfig returns the paper-scale configuration: 850 networks over
// the 17-month study window (Aug 2013 - Dec 2014).
func DefaultConfig(seed uint64) Config {
	p := osp.Default(seed)
	return Config{Seed: p.Seed, Networks: p.Networks, Start: p.Start, End: p.End}
}

// SmallConfig returns a laptop-scale configuration suitable for tests,
// examples, and exploration.
func SmallConfig(seed uint64) Config {
	p := osp.Small(seed)
	return Config{Seed: p.Seed, Networks: p.Networks, Start: p.Start, End: p.End}
}

// params converts a Config to generator parameters, applying the zero
// value defaults; a negative Networks or an End before Start is an error.
func (c Config) params() (osp.Params, error) {
	if c.Networks < 0 {
		return osp.Params{}, fmt.Errorf("mpa: negative network count %d", c.Networks)
	}
	p := osp.Params{Seed: c.Seed, Networks: c.Networks, Start: c.Start, End: c.End}
	if p.Networks == 0 {
		p.Networks = 60
	}
	var zero Month
	if p.Start == zero || p.End == zero {
		p.Start, p.End = months.StudyStart, months.StudyEnd
	} else if p.End.Before(p.Start) {
		return osp.Params{}, fmt.Errorf("mpa: end month %v precedes start %v", p.End, p.Start)
	}
	return p, nil
}

// Framework is an MPA instance bound to one organization's data.
//
// The bound state is swappable: Ingest (ingest.go) splices a new month
// of data into copies of the substrates and atomically replaces the
// environment pointer, so queries racing an update read either the old
// or the new state — never a torn mix.
type Framework struct {
	env atomic.Pointer[experiments.Env]
	// cacheDir is the on-disk inference cache directory, recorded in
	// manifests; empty when the cache is off.
	cacheDir string
	// answers is the answers disk tier (answers.go); nil when it is off.
	answers *cache.Cache
	// ingestMu serializes updates.
	ingestMu sync.Mutex
	// hub fans applied updates out to stream subscribers.
	hub *ingest.Hub
}

// environment returns the framework's current immutable state.
func (f *Framework) environment() *experiments.Env { return f.env.Load() }

// newFramework wraps an Env in a Framework.
func newFramework(env *experiments.Env, cc CacheConfig) *Framework {
	f := &Framework{cacheDir: cc.Dir, answers: newAnswers(cc), hub: ingest.NewHub()}
	f.env.Store(env)
	return f
}

// NewSynthetic generates a synthetic organization and runs inference over
// it. Identical configs produce identical frameworks.
func NewSynthetic(cfg Config) (*Framework, error) {
	p, err := cfg.params()
	if err != nil {
		return nil, err
	}
	env, err := experiments.NewEnv(p, cfg.Cache)
	if err != nil {
		return nil, err
	}
	return newFramework(env, cfg.Cache), nil
}

// New builds a framework over an organization's own data sources,
// inferring practices for every month in [start, end].
func New(inv *Inventory, arch *Archive, tickets *TicketLog, start, end Month) (*Framework, error) {
	return NewCached(inv, arch, tickets, start, end, CacheConfig{})
}

// NewCached is New with the content-addressed per-network inference
// cache configured by cc: with an on-disk tier, re-analyzing an
// organization whose data is largely unchanged (a restart, or the common
// monitoring cadence) recomputes only the networks whose inputs actually
// changed.
func NewCached(inv *Inventory, arch *Archive, tickets *TicketLog, start, end Month, cc CacheConfig) (*Framework, error) {
	if inv == nil || arch == nil || tickets == nil {
		return nil, fmt.Errorf("mpa: nil data source")
	}
	if end.Before(start) {
		return nil, fmt.Errorf("mpa: end month %v precedes start %v", end, start)
	}
	o := &osp.OSP{Params: osp.Params{Start: start, End: end}, Inventory: inv, Archive: arch, Tickets: tickets}
	env, err := experiments.Infer(o, cc, obs.NewStageTable("pipeline"))
	if err != nil {
		return nil, err
	}
	return newFramework(env, cc), nil
}

// State is one consistent read of a framework: every field, and the
// ranking, comes from the same environment snapshot, so an ingest landing
// mid-read cannot pair one window's months with another window's cases,
// or one snapshot's ranking with another's case count.
type State struct {
	Dataset *Dataset
	Window  []Month
	Tickets *TicketLog
	env     *experiments.Env
}

// State returns the framework's current snapshot.
func (f *Framework) State() State {
	env := f.environment()
	return State{Dataset: env.Data, Window: env.Window(), Tickets: env.OSP.Tickets, env: env}
}

// RankPractices is Framework.RankPractices over the snapshot.
func (s State) RankPractices() []PracticeDependence { return experiments.MIRanking(s.env) }

// Dataset returns the case matrix (one case per network-month).
func (f *Framework) Dataset() *Dataset { return f.environment().Data }

// Window returns the study months.
func (f *Framework) Window() []Month { return f.environment().Window() }

// ExperimentResult pairs an experiment ID with its outcome; OK is false
// for unknown IDs.
type ExperimentResult = experiments.RunResult

// RunExperiments executes the given experiments (nil = all, in paper
// order) on up to SetWorkers goroutines and returns the results in
// input order. Reports are identical at any worker count.
func (f *Framework) RunExperiments(ids []string) []ExperimentResult {
	return experiments.RunAll(f.environment(), ids)
}

// ExperimentIDs lists the reproducible tables and figures in paper order.
func ExperimentIDs() []string { return experiments.IDs() }

// StudyWindow returns the paper's 17-month window (Aug 2013 - Dec 2014).
func StudyWindow() (start, end Month) { return months.StudyStart, months.StudyEnd }

// MonthOf returns the Month containing t.
func MonthOf(t time.Time) Month { return months.Of(t) }
