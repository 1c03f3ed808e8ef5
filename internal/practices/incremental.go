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
// snapshot archive. The engine's content-addressed caches are keyed by
// snapshot text, never archive identity, so a rebound engine reuses
// every still-valid parse and diff entry and pays only for genuinely
// new snapshots.
func (e *Engine) SetArchive(a *nms.Archive) { e.arch = a }

// AnalyzeNetworkMonth computes one network's analysis for a single
// month, byte-identical to the corresponding row of a full
// AnalyzeNetwork walk over any window containing the month. It parses
// one pre-month baseline snapshot per device plus the month's own
// snapshots; with the parse cache warm only new snapshot texts cost
// anything.
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

	var snapsParsed, diffsComputed int
	var changes []ChangeDetail
	var configs []*confmodel.Config
	for _, dev := range nw.Devices {
		hist := e.arch.Snapshots(dev.Name)
		// Histories are time-ordered, so the pre-month snapshots form a
		// prefix; hist[base-1] is the device's state entering the month.
		base := sort.Search(len(hist), func(i int) bool { return !hist[i].Time.Before(begin) })
		var state *confmodel.Config
		var prevText string
		if base > 0 {
			cfg, err := e.parse(ns, dev, hist[base-1])
			snapsParsed++
			if err != nil {
				obs.GetCounter("inference.parse_failures").Add(1)
				return MonthAnalysis{}, err
			}
			state, prevText = cfg, hist[base-1].Text
		}
		for i := base; i < len(hist) && hist[i].Time.Before(end); i++ {
			snap := hist[i]
			cfg, err := e.parse(ns, dev, snap)
			snapsParsed++
			if err != nil {
				obs.GetCounter("inference.parse_failures").Add(1)
				return MonthAnalysis{}, err
			}
			if state == nil {
				state, prevText = cfg, snap.Text // baseline import, not a change
				continue
			}
			diff := e.diffSnapshots(ns, e.dialect(dev).Name(), prevText, snap.Text, state, cfg)
			diffsComputed++
			state, prevText = cfg, snap.Text
			if len(diff) == 0 {
				continue // identical snapshot: no configuration change
			}
			if months.Of(snap.Time) != m {
				continue
			}
			types := make([]confmodel.Type, 0, 2)
			for _, ch := range diff {
				if len(types) == 0 || types[len(types)-1] != ch.Type {
					types = append(types, ch.Type)
				}
			}
			changes = append(changes, ChangeDetail{
				Device:    dev.Name,
				Time:      snap.Time,
				Automated: e.arch.IsAutomated(snap.Login),
				Types:     types,
				Middlebox: dev.Role.IsMiddlebox(),
			})
		}
		if state != nil {
			configs = append(configs, state)
		}
	}

	metrics := Metrics{}
	e.designMetrics(metrics, nw, configs, mgmtOwner)
	nEvents := e.operationalMetrics(metrics, nw, changes)

	nsp.Count("snapshots_parsed", float64(snapsParsed))
	nsp.Count("diffs", float64(diffsComputed))
	nsp.Count("changes", float64(len(changes)))
	nsp.Count("events", float64(nEvents))
	obs.GetCounter("inference.snapshots_parsed").Add(int64(snapsParsed))
	obs.GetCounter("inference.diffs").Add(int64(diffsComputed))
	obs.GetCounter("inference.changes").Add(int64(len(changes)))
	obs.GetCounter("inference.events_grouped").Add(int64(nEvents))
	monthHist.Observe(float64(time.Since(monthStart).Nanoseconds()))
	return MonthAnalysis{Network: nw.Name, Month: m, Metrics: metrics, Changes: changes}, nil
}
