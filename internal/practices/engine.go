package practices

import (
	"encoding/json"
	"fmt"
	"time"

	"mpa/internal/cache"
	"mpa/internal/ciscoios"
	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
	"mpa/internal/events"
	"mpa/internal/junos"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/obs"
	"mpa/internal/par"
)

// monthHist records per-network-month inference latency in nanoseconds.
var monthHist = obs.GetLogHistogram("inference.month_ns")

// ChangeDetail is one inferred configuration change with the attributes
// the characterization figures and event metrics need.
type ChangeDetail struct {
	Device    string
	Time      time.Time
	Automated bool
	// Types lists the vendor-agnostic stanza types the change touched.
	Types []confmodel.Type
	// Middlebox reports whether the changed device is a middlebox.
	Middlebox bool
}

// HasType reports whether the change touched the given stanza type.
//
// The linear scan is deliberate: Types holds the distinct stanza types of
// one change event — almost always one to three entries, bounded by
// confmodel.NumTypes — so a set would cost an allocation per ChangeDetail
// (inference builds one per change across every network-month) to speed up
// a scan that already fits in a cache line.
func (c ChangeDetail) HasType(t confmodel.Type) bool {
	for _, ty := range c.Types {
		if ty == t {
			return true
		}
	}
	return false
}

// HasRouterType reports whether the change touched a routing-protocol
// stanza. Like HasType, it scans: Types is tiny (see HasType).
func (c ChangeDetail) HasRouterType() bool {
	for _, ty := range c.Types {
		if ty.IsRouter() {
			return true
		}
	}
	return false
}

// MonthAnalysis is the inference output for one network-month: the 28
// practice metrics plus the underlying change details (for
// characterization and delta-sensitivity analyses).
type MonthAnalysis struct {
	Network string
	Month   months.Month
	Metrics Metrics
	Changes []ChangeDetail
}

// Engine infers practice metrics from inventory records and the snapshot
// archive. It is the analytics-side counterpart of the generator: it sees
// only raw data, never ground truth.
type Engine struct {
	inv     *netmodel.Inventory
	arch    *nms.Archive
	delta   time.Duration // change-event grouping threshold
	workers int           // goroutines for Analyze; 0 = process default

	cisco confmodel.Dialect
	junos confmodel.Dialect

	obs *obs.Span // parent span for analysis runs; nil = untraced

	// Content-addressed memoization of the engine's pure stages (see
	// internal/cache); all nil when caching is disabled. Cached values
	// (parsed configs, diffs, month analyses) are shared and immutable.
	parseCache *cache.Cache // snapshot text -> *confmodel.Config
	diffCache  *cache.Cache // snapshot text pair -> []confdiff.StanzaChange
	netCache   *cache.Cache // network inputs -> []MonthAnalysis

	// analysisKey digests the inputs of the last Analyze call (the
	// per-network keys in inventory order); valid only when caching was
	// enabled for that run.
	analysisKey   cache.Key
	analysisKeyOK bool
}

// NewEngine returns an inference engine over the given data sources using
// the paper's default event-grouping threshold (5 minutes).
func NewEngine(inv *netmodel.Inventory, arch *nms.Archive) *Engine {
	return &Engine{
		inv:   inv,
		arch:  arch,
		delta: events.DefaultDelta,
		cisco: ciscoios.Dialect{},
		junos: junos.Dialect{},
	}
}

// SetDelta overrides the change-event grouping threshold (Figure 3's
// sensitivity sweep). Non-positive disables grouping.
func (e *Engine) SetDelta(d time.Duration) { e.delta = d }

// SetObs attaches a parent span; subsequent Analyze runs record an
// "inference" span with per-network (and per-month) children under it.
func (e *Engine) SetObs(sp *obs.Span) { e.obs = sp }

// SetCache enables content-addressed memoization of the engine's pure
// stages: snapshot parsing, per-pair diffing, and whole per-network month
// analyses. Parse results and network analyses also use the on-disk tier
// when cfg.Dir is set, so a fresh process re-analyzing unchanged inputs
// skips all per-network work. Caching never changes results — a cold,
// warm, or disabled run produces byte-identical analyses.
func (e *Engine) SetCache(cfg cache.Config) {
	e.parseCache = cache.New("parse", cfg)
	e.diffCache = cache.New("confdiff", cfg)
	e.netCache = cache.New("practices", cfg)
}

// AnalysisKey returns the content digest of the last Analyze run's inputs
// (delta, window, inventory, snapshot streams, automation accounts), for
// keying downstream caches. ok is false when caching was disabled.
func (e *Engine) AnalysisKey() (key cache.Key, ok bool) {
	return e.analysisKey, e.analysisKeyOK
}

// SetWorkers bounds the goroutines Analyze uses to process networks
// concurrently. Zero or negative uses the process default
// (par.SetDefaultWorkers, initially all CPUs). The analysis output is
// identical at every worker count: each network's inference is
// independent and the per-network results are collected in inventory
// order.
func (e *Engine) SetWorkers(n int) { e.workers = n }

// dialect returns the device's vendor dialect.
func (e *Engine) dialect(dev *netmodel.Device) confmodel.Dialect {
	if dev.Vendor == netmodel.VendorCisco {
		return e.cisco
	}
	return e.junos
}

// netScratch is the per-worker reusable state behind Analyze: the dialect
// parsing scratch (field buffer + interner) and a diff buffer. A
// netScratch is owned by exactly one goroutine at a time — par.MapLocal
// hands each worker its own — which keeps parallel inference race-free
// while the buffers amortize across every snapshot the worker touches.
// It holds only caches and transient buffers, never results, so the
// analysis output is byte-identical at any worker count.
type netScratch struct {
	sc   *confmodel.Scratch
	diff []confdiff.StanzaChange
}

func newNetScratch() *netScratch { return &netScratch{sc: confmodel.NewScratch()} }

// parse parses a snapshot's text with the device's vendor dialect,
// memoized by text content when caching is enabled. The disk tier stores
// the canonical rendering of the parsed config — Render is the encode,
// Parse the decode, so the codec is exactly the dialect's (fuzz- and
// property-tested) round trip. The worker's scratch backs the parse;
// parsed configs retain only immutable strings (see confmodel.Scratch),
// so caching and sharing them across workers stays safe.
func (e *Engine) parse(ns *netScratch, dev *netmodel.Device, s *nms.Snapshot) (*confmodel.Config, error) {
	d := e.dialect(dev)
	parse := func(text string) (*confmodel.Config, error) {
		if sp, ok := d.(confmodel.ScratchParser); ok && ns != nil {
			return sp.ParseScratch(text, ns.sc)
		}
		return d.Parse(text)
	}
	var cfg *confmodel.Config
	var err error
	if e.parseCache == nil {
		cfg, err = parse(s.Text)
	} else {
		key := cache.KeyOf("parse/v1", d.Name(), s.Text)
		codec := cache.Codec[*confmodel.Config]{
			Encode: func(c *confmodel.Config) ([]byte, error) { return []byte(d.Render(c)), nil },
			Decode: func(b []byte) (*confmodel.Config, error) { return d.Parse(string(b)) },
		}
		cfg, err = cache.GetOrCompute(e.parseCache, key, codec, func() (*confmodel.Config, error) {
			return parse(s.Text)
		})
	}
	if err != nil {
		return nil, fmt.Errorf("practices: parsing snapshot of %s at %v: %w", dev.Name, s.Time, err)
	}
	return cfg, nil
}

// diffSnapshots computes the typed stanza changes between two successive
// snapshots, memoized per text pair (memory tier only: diffs are cheap to
// recompute from the cached parses, so they do not earn disk files).
// Without the cache the diff lands in the worker's reusable buffer — the
// result is only valid until the next diffSnapshots call on the same
// scratch, which computeNetwork respects by consuming it immediately.
// Cached diffs are shared across callers and so must own their memory.
func (e *Engine) diffSnapshots(ns *netScratch, dialect, oldText, newText string, oldCfg, newCfg *confmodel.Config) []confdiff.StanzaChange {
	if e.diffCache == nil {
		if ns != nil {
			ns.diff = confdiff.AppendDiff(ns.diff[:0], oldCfg, newCfg)
			return ns.diff
		}
		return confdiff.Diff(oldCfg, newCfg)
	}
	key := cache.KeyOf("confdiff/v1", dialect, oldText, newText)
	diff, _ := cache.GetOrCompute(e.diffCache, key, cache.Codec[[]confdiff.StanzaChange]{},
		func() ([]confdiff.StanzaChange, error) { return confdiff.Diff(oldCfg, newCfg), nil })
	return diff
}

// networkKey digests everything the network's month analyses depend on:
// the grouping threshold, the window, the device records, every snapshot's
// time, login, and full text, and the automation-account set.
func (e *Engine) networkKey(nw *netmodel.Network, window []months.Month) cache.Key {
	h := cache.NewHasher("practices/v1")
	h.Int(int64(e.delta))
	h.String(nw.Name)
	h.Int(int64(len(window)))
	for _, m := range window {
		h.String(m.String())
	}
	for _, login := range e.arch.SpecialAccounts() {
		h.String(login)
	}
	h.Int(int64(len(nw.Devices)))
	for _, dev := range nw.Devices {
		h.String(dev.Name).String(dev.Vendor.String()).String(dev.Model)
		h.String(dev.Role.String()).String(dev.Firmware).String(dev.MgmtIP)
		hist := e.arch.Snapshots(dev.Name)
		h.Int(int64(len(hist)))
		for _, snap := range hist {
			h.Time(snap.Time).String(snap.Login).String(snap.Text)
		}
	}
	return h.Sum()
}

// monthAnalysisCodec serializes a network's analyses for the disk tier.
// JSON round-trips every field exactly: float64 via shortest-form
// encoding, times via RFC3339 with nanoseconds.
var monthAnalysisCodec = cache.Codec[[]MonthAnalysis]{
	Encode: func(ma []MonthAnalysis) ([]byte, error) { return json.Marshal(ma) },
	Decode: func(b []byte) ([]MonthAnalysis, error) {
		var ma []MonthAnalysis
		if err := json.Unmarshal(b, &ma); err != nil {
			return nil, err
		}
		return ma, nil
	},
}

// AnalyzeNetwork computes the metrics for every month of the window for
// one network. It walks each device's snapshot stream exactly once,
// parsing every snapshot a single time, and evaluates design metrics from
// the live end-of-month configuration state. With caching enabled, a
// network whose inputs are unchanged is answered from the cache without
// any parsing or diffing.
func (e *Engine) AnalyzeNetwork(name string, window []months.Month) ([]MonthAnalysis, error) {
	ma, _, err := e.analyzeNetwork(name, window, e.obs, newNetScratch())
	return ma, err
}

// analyzeNetwork is AnalyzeNetwork under an explicit parent span and
// worker-owned scratch, additionally returning the network's content key
// (zero when caching is disabled).
func (e *Engine) analyzeNetwork(name string, window []months.Month, parent *obs.Span, ns *netScratch) ([]MonthAnalysis, cache.Key, error) {
	nw := e.inv.Network(name)
	if nw == nil {
		return nil, cache.Key{}, fmt.Errorf("practices: unknown network %q", name)
	}
	if e.netCache == nil {
		ma, err := e.computeNetwork(nw, window, parent, ns)
		return ma, cache.Key{}, err
	}
	key := e.networkKey(nw, window)
	ma, err := cache.GetOrCompute(e.netCache, key, monthAnalysisCodec,
		func() ([]MonthAnalysis, error) { return e.computeNetwork(nw, window, parent, ns) })
	return ma, key, err
}

// computeNetwork runs the actual per-network inference.
func (e *Engine) computeNetwork(nw *netmodel.Network, window []months.Month, parent *obs.Span, ns *netScratch) ([]MonthAnalysis, error) {
	name := nw.Name
	nsp := parent.Start(name)
	defer nsp.End()

	// Per-device cursor over the snapshot history.
	type cursor struct {
		dev      *netmodel.Device
		hist     []*nms.Snapshot
		pos      int               // next snapshot to consume
		state    *confmodel.Config // config as of consumed snapshots
		prevText string            // text of the snapshot state was parsed from
	}
	cursors := make([]*cursor, 0, len(nw.Devices))
	for _, dev := range nw.Devices {
		cursors = append(cursors, &cursor{dev: dev, hist: e.arch.Snapshots(dev.Name)})
	}

	mgmtOwner := map[string]string{}
	for _, dev := range nw.Devices {
		mgmtOwner[dev.MgmtIP] = dev.Name
	}

	var snapsParsed, diffsComputed, changesFound, eventsGrouped int
	out := make([]MonthAnalysis, 0, len(window))
	for _, m := range window {
		msp := nsp.Start(m.String())
		monthStart := time.Now()
		end := m.End()
		var changes []ChangeDetail
		for _, cu := range cursors {
			for cu.pos < len(cu.hist) && cu.hist[cu.pos].Time.Before(end) {
				snap := cu.hist[cu.pos]
				cu.pos++
				cfg, err := e.parse(ns, cu.dev, snap)
				snapsParsed++
				if err != nil {
					obs.GetCounter("inference.parse_failures").Add(1)
					nsp.Count("parse_failures", 1)
					msp.End()
					return nil, err
				}
				if cu.state == nil {
					cu.state, cu.prevText = cfg, snap.Text // baseline import, not a change
					continue
				}
				diff := e.diffSnapshots(ns, e.dialect(cu.dev).Name(), cu.prevText, snap.Text, cu.state, cfg)
				diffsComputed++
				cu.state, cu.prevText = cfg, snap.Text
				if len(diff) == 0 {
					continue // identical snapshot: no configuration change
				}
				// Only changes inside the analysis window count.
				if months.Of(snap.Time) != m {
					continue
				}
				// Distinct types in deterministic order: the diff is sorted
				// by type, so consecutive dedup suffices.
				types := make([]confmodel.Type, 0, 2)
				for _, ch := range diff {
					if len(types) == 0 || types[len(types)-1] != ch.Type {
						types = append(types, ch.Type)
					}
				}
				changes = append(changes, ChangeDetail{
					Device:    cu.dev.Name,
					Time:      snap.Time,
					Automated: e.arch.IsAutomated(snap.Login),
					Types:     types,
					Middlebox: cu.dev.Role.IsMiddlebox(),
				})
			}
		}

		// Assemble end-of-month configuration states.
		var configs []*confmodel.Config
		for _, cu := range cursors {
			if cu.state != nil {
				configs = append(configs, cu.state)
			}
		}

		metrics := Metrics{}
		e.designMetrics(metrics, nw, configs, mgmtOwner)
		nEvents := e.operationalMetrics(metrics, nw, changes)
		out = append(out, MonthAnalysis{Network: name, Month: m, Metrics: metrics, Changes: changes})

		changesFound += len(changes)
		eventsGrouped += nEvents
		msp.Count("changes", float64(len(changes)))
		msp.Count("events", float64(nEvents))
		msp.End()
		monthHist.Observe(float64(time.Since(monthStart).Nanoseconds()))
	}
	nsp.Count("snapshots_parsed", float64(snapsParsed))
	nsp.Count("diffs", float64(diffsComputed))
	nsp.Count("changes", float64(changesFound))
	nsp.Count("events", float64(eventsGrouped))
	// Roll the totals up to the stage span ("inference" under Analyze).
	parent.Count("snapshots_parsed", float64(snapsParsed))
	parent.Count("diffs", float64(diffsComputed))
	parent.Count("changes", float64(changesFound))
	parent.Count("events", float64(eventsGrouped))
	obs.GetCounter("inference.snapshots_parsed").Add(int64(snapsParsed))
	obs.GetCounter("inference.diffs").Add(int64(diffsComputed))
	obs.GetCounter("inference.changes").Add(int64(changesFound))
	obs.GetCounter("inference.events_grouped").Add(int64(eventsGrouped))
	return out, nil
}

// Analyze runs AnalyzeNetwork for every network in the inventory, under
// one "inference" span when a parent was attached with SetObs. Networks
// are analyzed on up to SetWorkers goroutines (snapshot parsing is the
// pipeline's dominant cost); the inventory and archive are only read, and
// results are collected in inventory order, so the output is identical at
// every worker count. On failure the lowest-inventory-index error is
// returned — the same error a sequential pass would surface first.
func (e *Engine) Analyze(window []months.Month) (map[string][]MonthAnalysis, error) {
	sp := e.obs.Start("inference")
	defer sp.End()
	start := time.Now()
	type netResult struct {
		ma  []MonthAnalysis
		key cache.Key
	}
	e.analysisKeyOK = false
	pt := obs.StartProgress("inference", int64(len(e.inv.Networks)))
	results, err := par.MapLocal(e.workers, e.inv.Networks, newNetScratch,
		func(ns *netScratch, _ int, nw *netmodel.Network) (netResult, error) {
			ma, key, err := e.analyzeNetwork(nw.Name, window, sp, ns)
			pt.Add(1)
			return netResult{ma: ma, key: key}, err
		})
	pt.Done()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]MonthAnalysis, len(results))
	keys := cache.NewHasher("practices-all/v1")
	for i, r := range results {
		out[e.inv.Networks[i].Name] = r.ma
		keys.Key(r.key)
	}
	if e.netCache != nil {
		e.analysisKey = keys.Sum()
		e.analysisKeyOK = true
	}
	sp.Count("networks", float64(len(out)))
	obs.Logger().Info("inference complete",
		"networks", len(out), "months", len(window),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return out, nil
}
