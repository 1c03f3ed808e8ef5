package practices

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mpa/internal/cache"
	"mpa/internal/ciscoios"
	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
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
	inv  *netmodel.Inventory
	arch *nms.Archive

	cisco confmodel.ScratchParser
	junos confmodel.ScratchParser

	obs *obs.Span // parent span for analysis runs; nil = untraced

	// netCache stores whole per-network month analyses on disk (see
	// internal/cache); nil when caching is disabled.
	netCache *cache.Cache

	// facts are the newest window-end design facts of each network the
	// engine walked or was handed (SetFacts); replaced, never modified.
	factsMu sync.Mutex
	facts   Facts
}

// NewEngine returns an inference engine over the given data sources using
// the paper's default event-grouping threshold (5 minutes).
func NewEngine(inv *netmodel.Inventory, arch *nms.Archive) *Engine {
	return &Engine{
		inv:   inv,
		arch:  arch,
		cisco: ciscoios.Dialect{},
		junos: junos.Dialect{},
	}
}

// SetObs attaches a parent span; subsequent Analyze runs record an
// "inference" span with per-network (and per-month) children under it.
func (e *Engine) SetObs(sp *obs.Span) { e.obs = sp }

// SetCache stores whole per-network month analyses in a disk tier under
// cfg.Dir (none when Dir is empty), keyed by everything a network's
// analysis reads, so a fresh process re-analyzing unchanged inputs skips
// all per-network work. There is no per-snapshot cache: in a snapshot
// stream almost every text is new, so the engine instead parses each
// snapshot against the device's previous one (ParseNext), parsing only
// the window of text that changed and skipping shared stanzas in the diff.
// Caching never changes results — a cold, warm, or disabled run produces
// byte-identical analyses.
func (e *Engine) SetCache(cfg cache.Config) {
	e.netCache = cache.New("practices", cfg)
}

// dialect returns the device's vendor dialect.
func (e *Engine) dialect(dev *netmodel.Device) confmodel.ScratchParser {
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

// netWalk accumulates one network's inference walk: the changes found
// in the month being walked and the work counts for the span rollups.
type netWalk struct {
	ns           *netScratch
	month        months.Month // only changes inside this month count
	changes      []ChangeDetail
	snaps, diffs int
}

// step consumes the next snapshot of a device's time-ordered history. It
// parses the snapshot with the worker's scratch as the successor of the
// device's state, so only the window of text between what the two
// snapshots have in common at the start and at the end is parsed and
// every block outside it shares the previous snapshot's stanza (state is
// nil for the device's first snapshot: a full parse), and, when the
// device already has a state, diffs the two configs; a non-empty diff
// inside the walk's month becomes a ChangeDetail. It returns the
// device's new state. The diff lives in the worker's reused buffer, so
// step reduces it to the change's types before returning and never
// retains it.
func (e *Engine) step(w *netWalk, dev *netmodel.Device, state *confmodel.Config, snap *nms.Snapshot) (*confmodel.Config, error) {
	cfg, err := e.dialect(dev).ParseNext(state, snap.Text, w.ns.sc)
	w.snaps++
	if err != nil {
		obs.GetCounter("inference.parse_failures").Add(1)
		return nil, fmt.Errorf("practices: parsing snapshot of %s at %v: %w", dev.Name, snap.Time, err)
	}
	if state == nil {
		return cfg, nil // baseline import, not a change
	}
	w.ns.diff = confdiff.AppendDiff(w.ns.diff[:0], state, cfg)
	w.diffs++
	// An identical snapshot is no configuration change, and only changes
	// inside the walk's month count.
	if len(w.ns.diff) == 0 || months.Of(snap.Time) != w.month {
		return cfg, nil
	}
	// Distinct types in deterministic order: the diff is sorted by type,
	// so consecutive dedup suffices.
	types := make([]confmodel.Type, 0, 2)
	for _, ch := range w.ns.diff {
		if len(types) == 0 || types[len(types)-1] != ch.Type {
			types = append(types, ch.Type)
		}
	}
	w.changes = append(w.changes, ChangeDetail{
		Device:    dev.Name,
		Time:      snap.Time,
		Automated: e.arch.IsAutomated(snap.Login),
		Types:     types,
		Middlebox: dev.Role.IsMiddlebox(),
	})
	return cfg, nil
}

// networkKey digests everything the network's month analyses depend on:
// the grouping threshold, the window, the device records, every snapshot's
// time, login, and full text, and the automation-account set. The
// namespace names the entry layout (entry.go): an entry of another
// layout is never read.
func (e *Engine) networkKey(nw *netmodel.Network, window []months.Month) cache.Key {
	h := cache.NewHasher("practices/v2")
	h.Int(int64(DefaultDelta))
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

// windowEnds returns, for each of the network's devices, its last
// snapshot before the window's end (nil for a device with none): the
// snapshot a walk over the window ends on, whose config the device's
// window-end facts describe. It is nil for an empty window, which ends
// with no facts.
func (e *Engine) windowEnds(nw *netmodel.Network, window []months.Month) []*nms.Snapshot {
	if len(window) == 0 {
		return nil
	}
	end := window[0].End()
	for _, m := range window[1:] {
		if m.End().After(end) {
			end = m.End()
		}
	}
	lasts := make([]*nms.Snapshot, len(nw.Devices))
	for i, dev := range nw.Devices {
		hist := e.arch.Snapshots(dev.Name)
		if k := sort.Search(len(hist), func(j int) bool { return !hist[j].Time.Before(end) }); k > 0 {
			lasts[i] = hist[k-1]
		}
	}
	return lasts
}

// analyzeNetwork computes the metrics for every month of the window for
// one network under an explicit parent span and worker-owned scratch,
// reusing the carried facts, and returns them with the network's facts
// at the window's end. With the disk tier on, a network whose inputs
// are unchanged is read back, rows and facts, without any parsing or
// diffing.
func (e *Engine) analyzeNetwork(name string, window []months.Month, parent *obs.Span, ns *netScratch, carry Facts) (walked, error) {
	nw := e.inv.Network(name)
	if nw == nil {
		return walked{}, fmt.Errorf("practices: unknown network %q", name)
	}
	compute := func() (walked, error) { return e.computeNetwork(nw, window, parent, ns, carry[name]) }
	if e.netCache == nil {
		return compute()
	}
	return cache.GetOrCompute(e.netCache, e.networkKey(nw, window), entryCodec(e.windowEnds(nw, window)), compute)
}

// cursor is one device's position in its time-ordered snapshot history
// during a window walk. The snapshots before the window form a prefix of
// the history, and the last of them is the device's state entering the
// window: a cursor starts just past it and parses it, as the device's
// baseline import, only when the walk needs the config, so a window's
// cost does not grow with the history before it, and a device whose
// entering facts are carried is not parsed at all until it changes.
type cursor struct {
	dev   *netmodel.Device
	hist  []*nms.Snapshot
	pos   int               // next snapshot to consume
	state *confmodel.Config // config as of consumed snapshots; nil until parsed

	// facts are the design facts of the device's config at the end of
	// the previous month (nil before its first), computed from the
	// config of (nil for facts carried into the window). A device with
	// no snapshot in a month keeps the same (immutable) config, so its
	// facts carry over.
	facts *deviceFacts
	of    *confmodel.Config
}

// baseline parses the snapshot entering the window, when the device has
// one and its config is not parsed yet.
func (cu *cursor) baseline(e *Engine, w *netWalk) (err error) {
	if cu.state == nil && cu.pos > 0 {
		cu.state, err = e.step(w, cu.dev, nil, cu.hist[cu.pos-1])
	}
	return err
}

// computeNetwork runs the actual per-network inference. carried is the
// network's entry of the engine's Facts (nil when it has none); it
// returns the rows and the network's facts at the window's end.
func (e *Engine) computeNetwork(nw *netmodel.Network, window []months.Month, parent *obs.Span, ns *netScratch, carried []deviceEnd) (walked, error) {
	name := nw.Name
	nsp := parent.Start(name)
	defer nsp.End()

	mgmtOwner := map[string]string{}
	for _, dev := range nw.Devices {
		mgmtOwner[dev.MgmtIP] = dev.Name
	}

	nf := newNetFacts()
	cursors := make([]*cursor, 0, len(nw.Devices))
	for i, dev := range nw.Devices {
		cu := &cursor{dev: dev, hist: e.arch.Snapshots(dev.Name)}
		if len(window) > 0 {
			begin := window[0].Start()
			cu.pos = sort.Search(len(cu.hist), func(i int) bool { return !cu.hist[i].Time.Before(begin) })
		}
		// Facts computed from the entering snapshot stand for its config
		// until the device has a snapshot in the window.
		if cu.pos > 0 && len(carried) == len(nw.Devices) && carried[i].snap == cu.hist[cu.pos-1] {
			cu.facts = carried[i].facts
			nf.add(cu.facts, 1)
		}
		cursors = append(cursors, cu)
	}

	w := netWalk{ns: ns}
	var changesFound, eventsGrouped int
	out := make([]MonthAnalysis, 0, len(window))
	for _, m := range window {
		msp := nsp.Start(m.String())
		monthStart := time.Now()
		end := m.End()
		w.month, w.changes = m, nil
		fail := func(err error) error {
			nsp.Count("parse_failures", 1)
			msp.End()
			return err
		}
		for _, cu := range cursors {
			for cu.pos < len(cu.hist) && cu.hist[cu.pos].Time.Before(end) {
				err := cu.baseline(e, &w)
				if err == nil {
					cu.state, err = e.step(&w, cu.dev, cu.state, cu.hist[cu.pos])
				}
				if err != nil {
					return walked{}, fail(err)
				}
				cu.pos++
			}
		}
		changes := w.changes

		// The facts of the end-of-month configuration states. A device
		// still holding neither a config nor carried facts parses its
		// entering snapshot now.
		var devs []*deviceFacts
		for _, cu := range cursors {
			if cu.facts == nil {
				if err := cu.baseline(e, &w); err != nil {
					return walked{}, fail(err)
				}
			}
			if cu.state != nil && cu.of != cu.state {
				if cu.facts != nil {
					nf.add(cu.facts, -1)
				}
				cu.facts, cu.of = newDeviceFacts(cu.state, mgmtOwner), cu.state
				nf.add(cu.facts, 1)
			}
			if cu.facts != nil {
				devs = append(devs, cu.facts)
			}
		}

		metrics := Metrics{}
		e.designMetrics(metrics, nw, devs, nf)
		nEvents := e.operationalMetrics(metrics, nw, changes)
		out = append(out, MonthAnalysis{Network: name, Month: m, Metrics: metrics, Changes: changes})

		changesFound += len(changes)
		eventsGrouped += nEvents
		msp.Count("changes", float64(len(changes)))
		msp.Count("events", float64(nEvents))
		msp.End()
		monthHist.Observe(float64(time.Since(monthStart).Nanoseconds()))
	}
	var ends []deviceEnd
	if len(window) > 0 {
		ends = make([]deviceEnd, len(cursors))
		for i, cu := range cursors {
			if cu.facts != nil {
				ends[i] = deviceEnd{snap: cu.hist[cu.pos-1], facts: cu.facts}
			}
		}
	}
	nsp.Count("snapshots_parsed", float64(w.snaps))
	nsp.Count("diffs", float64(w.diffs))
	nsp.Count("changes", float64(changesFound))
	nsp.Count("events", float64(eventsGrouped))
	// Roll the totals up to the stage span ("inference" under Analyze).
	parent.Count("snapshots_parsed", float64(w.snaps))
	parent.Count("diffs", float64(w.diffs))
	parent.Count("changes", float64(changesFound))
	parent.Count("events", float64(eventsGrouped))
	obs.GetCounter("inference.snapshots_parsed").Add(int64(w.snaps))
	obs.GetCounter("inference.diffs").Add(int64(w.diffs))
	obs.GetCounter("inference.changes").Add(int64(changesFound))
	obs.GetCounter("inference.events_grouped").Add(int64(eventsGrouped))
	return walked{rows: out, ends: ends}, nil
}

// Analyze analyzes every network in the inventory over the window, under
// one "inference" span when a parent was attached with SetObs. Networks
// are analyzed on up to par.Workers goroutines (snapshot parsing is the
// pipeline's dominant cost); the inventory and archive are only read, and
// results are collected in inventory order, so the output is identical at
// every worker count. On failure the lowest-inventory-index error is
// returned — the same error a sequential pass would surface first.
func (e *Engine) Analyze(window []months.Month) (map[string][]MonthAnalysis, error) {
	sp := e.obs.Start("inference")
	defer sp.End()
	start := time.Now()
	carry := e.Facts()
	pt := obs.StartProgress("inference", int64(len(e.inv.Networks)))
	results, err := par.MapLocal(e.inv.Networks, newNetScratch,
		func(ns *netScratch, _ int, nw *netmodel.Network) (walked, error) {
			r, err := e.analyzeNetwork(nw.Name, window, sp, ns, carry)
			pt.Add(1)
			return r, err
		})
	pt.Done()
	if err != nil {
		return nil, err
	}
	out := make(map[string][]MonthAnalysis, len(results))
	names := make([]string, len(results))
	ends := make([][]deviceEnd, len(results))
	for i, r := range results {
		names[i] = e.inv.Networks[i].Name
		out[names[i]], ends[i] = r.rows, r.ends
	}
	e.keepFacts(names, ends)
	sp.Count("networks", float64(len(out)))
	obs.Logger().Info("inference complete",
		"networks", len(out), "months", len(window),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return out, nil
}
