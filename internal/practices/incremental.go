package practices

// Incremental (single-month) inference: the engine's append-only update
// path. There is one inference walk, computeNetwork, and it starts every
// device's cursor at the device's last snapshot before the window — the
// state entering the window is fully determined by that one snapshot. So
// when one new month of snapshots arrives, AnalyzeMonth walks the window
// holding just that month: one entering snapshot per device plus the
// month's own snapshots, a cost of O(devices + month's snapshots)
// regardless of history length.
//
// A month's row is therefore the same computation whether the month is
// walked alone or inside a longer window: the entering state, the
// in-month snapshots diffed in device-inventory-then-time order, and the
// month-end states are all identical, so the rows match byte-for-byte
// (TestIncrementalMonthEquivalence, TestSpliceEquivalence).

import (
	"fmt"
	"time"

	"mpa/internal/months"
	"mpa/internal/nms"
	"mpa/internal/obs"
	"mpa/internal/par"
)

// SetArchive rebinds the engine to a (typically cloned and extended)
// snapshot archive. Later runs read the new archive's histories; the
// per-network cache keys digest the snapshot texts themselves, never
// archive identity, so entries for unchanged networks stay valid.
func (e *Engine) SetArchive(a *nms.Archive) { e.arch = a }

// AnalyzeMonth computes the given networks' analyses for one month, in
// input order, on up to par.Workers goroutines. Each row equals the
// month's row of a full Analyze over any window containing the month.
// Like Analyze, the output is identical at every worker count and the
// lowest-index error wins. It always walks the snapshots and never reads
// or writes the disk tier. The run is recorded as one "inference_month"
// span under the engine's parent — a distinct name from the full walk's
// "inference", so StageCalls("inference") keeps counting full rebuilds
// only.
func (e *Engine) AnalyzeMonth(m months.Month, names []string) ([]MonthAnalysis, error) {
	sp := e.obs.Start("inference_month")
	defer sp.End()
	start := time.Now()
	window := []months.Month{m}
	out, err := par.MapLocal(names, newNetScratch,
		func(ns *netScratch, _ int, name string) (MonthAnalysis, error) {
			nw := e.inv.Network(name)
			if nw == nil {
				return MonthAnalysis{}, fmt.Errorf("practices: unknown network %q", name)
			}
			rows, err := e.computeNetwork(nw, window, sp, ns)
			if err != nil {
				return MonthAnalysis{}, err
			}
			return rows[0], nil
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
