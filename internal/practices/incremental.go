package practices

// Incremental (single-month) inference: the engine's append-only update
// path. A full Analyze walks every device's entire snapshot history; when
// one new month of snapshots arrives, only that month's changes and the
// month-end configuration states are new — the device's state entering
// the month is fully determined by its last pre-month snapshot. The
// functions here exploit that: AnalyzeNetworkMonth reconstructs the
// entering state from one snapshot per device and walks only the new
// month, so a month's incremental cost is O(devices + month's snapshots)
// regardless of history length.
//
// Equivalence with the full walk is exact, not approximate: the
// month-m rows computeNetwork produces come from (i) the device state
// after consuming every snapshot before m's start, (ii) the in-month
// snapshots diffed in device-inventory-then-time order, and (iii) the
// month-end states. (i) equals the parse of the last pre-month snapshot,
// and (ii)/(iii) only touch in-month snapshots — so the single-month
// walk reproduces the full walk's row byte-for-byte
// (TestIncrementalMonthEquivalence, TestSpliceEquivalence).

import (
	"fmt"
	"sort"
	"time"

	"mpa/internal/confmodel"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/obs"
	"mpa/internal/par"
)

// SetArchive rebinds the engine to a (typically cloned and extended)
// snapshot archive. Later runs read the new archive's histories; the
// per-network cache keys digest the snapshot texts themselves, never
// archive identity, so entries for unchanged networks stay valid.
func (e *Engine) SetArchive(a *nms.Archive) { e.arch = a }

// AnalyzeNetworkMonth computes one network's analysis for a single
// month, byte-identical to the corresponding row of a full
// AnalyzeNetwork walk over any window containing the month. It parses
// one pre-month baseline snapshot per device plus the month's own
// snapshots, so its cost does not grow with history length.
func (e *Engine) AnalyzeNetworkMonth(name string, m months.Month) (MonthAnalysis, error) {
	nw := e.inv.Network(name)
	if nw == nil {
		return MonthAnalysis{}, fmt.Errorf("practices: unknown network %q", name)
	}
	return e.computeNetworkMonth(nw, m, e.obs, newNetScratch())
}

// AnalyzeMonth computes the given networks' analyses for one month, in
// input order, on up to SetWorkers goroutines. Like Analyze, the output
// is identical at every worker count and the lowest-index error wins.
// The run is recorded as one "inference_month" span under the engine's
// parent — a distinct name from the full walk's "inference", so
// StageCalls("inference") keeps counting full rebuilds only.
func (e *Engine) AnalyzeMonth(m months.Month, names []string) ([]MonthAnalysis, error) {
	sp := e.obs.Start("inference_month")
	defer sp.End()
	start := time.Now()
	out, err := par.MapLocal(e.workers, names, newNetScratch,
		func(ns *netScratch, _ int, name string) (MonthAnalysis, error) {
			nw := e.inv.Network(name)
			if nw == nil {
				return MonthAnalysis{}, fmt.Errorf("practices: unknown network %q", name)
			}
			return e.computeNetworkMonth(nw, m, sp, ns)
		})
	if err != nil {
		return nil, err
	}
	sp.Count("networks", float64(len(out)))
	obs.Logger().Debug("incremental inference complete",
		"month", m, "networks", len(out),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return out, nil
}

// computeNetworkMonth is the single-month analogue of computeNetwork.
func (e *Engine) computeNetworkMonth(nw *netmodel.Network, m months.Month, parent *obs.Span, ns *netScratch) (MonthAnalysis, error) {
	nsp := parent.Start(nw.Name)
	defer nsp.End()
	monthStart := time.Now()
	begin, end := m.Start(), m.End()

	mgmtOwner := map[string]string{}
	for _, dev := range nw.Devices {
		mgmtOwner[dev.MgmtIP] = dev.Name
	}

	w := netWalk{ns: ns, month: m}
	var configs []*confmodel.Config
	for _, dev := range nw.Devices {
		hist := e.arch.Snapshots(dev.Name)
		// Histories are time-ordered, so the pre-month snapshots form a
		// prefix; hist[base-1] is the device's state entering the month,
		// and the walk starts there as the device's baseline import.
		base := sort.Search(len(hist), func(i int) bool { return !hist[i].Time.Before(begin) })
		var state *confmodel.Config
		for i := max(base-1, 0); i < len(hist) && hist[i].Time.Before(end); i++ {
			var err error
			if state, err = e.step(&w, dev, state, hist[i]); err != nil {
				return MonthAnalysis{}, err
			}
		}
		if state != nil {
			configs = append(configs, state)
		}
	}
	changes := w.changes

	metrics := Metrics{}
	e.designMetrics(metrics, nw, configs, mgmtOwner)
	nEvents := e.operationalMetrics(metrics, nw, changes)

	nsp.Count("snapshots_parsed", float64(w.snaps))
	nsp.Count("diffs", float64(w.diffs))
	nsp.Count("changes", float64(len(changes)))
	nsp.Count("events", float64(nEvents))
	obs.GetCounter("inference.snapshots_parsed").Add(int64(w.snaps))
	obs.GetCounter("inference.diffs").Add(int64(w.diffs))
	obs.GetCounter("inference.changes").Add(int64(len(changes)))
	obs.GetCounter("inference.events_grouped").Add(int64(nEvents))
	monthHist.Observe(float64(time.Since(monthStart).Nanoseconds()))
	return MonthAnalysis{Network: nw.Name, Month: m, Metrics: metrics, Changes: changes}, nil
}
