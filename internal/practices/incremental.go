package practices

// Incremental (single-month) inference: the engine's append-only update
// path. There is one inference walk, computeNetwork, and it starts every
// device's cursor at the device's last snapshot before the window — the
// state entering the window is fully determined by that one snapshot. So
// when one new month of snapshots arrives, AnalyzeMonth walks the window
// holding just that month: the month's own snapshots, each diffed against
// its predecessor, the first against the device's entering snapshot.
// Only those devices parse their entering snapshot. A device with no
// snapshot in the month keeps its config, so the design facts the engine
// holds for its entering snapshot (Facts) stand for its month-end config
// and it is not parsed at all. The cost is O(devices with snapshots in
// the month + the month's snapshots), regardless of history length.
//
// A month's row is therefore the same computation whether the month is
// walked alone or inside a longer window: the entering state, the
// in-month snapshots diffed in device-inventory-then-time order, and the
// month-end states are all identical, so the rows match byte-for-byte
// (TestIncrementalMonthEquivalence, TestSpliceEquivalence).

import (
	"fmt"
	"maps"
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
//
// A device with no snapshot in the month whose facts the engine holds
// for the snapshot entering the month (Facts, SetFacts) is not parsed:
// the walk costs O(devices with snapshots in the month + the month's
// snapshots), not O(devices).
func (e *Engine) AnalyzeMonth(m months.Month, names []string) ([]MonthAnalysis, error) {
	sp := e.obs.Start("inference_month")
	defer sp.End()
	start := time.Now()
	window := []months.Month{m}
	carry := e.Facts()
	res, err := par.MapLocal(names, newNetScratch,
		func(ns *netScratch, _ int, name string) (walked, error) {
			nw := e.inv.Network(name)
			if nw == nil {
				return walked{}, fmt.Errorf("practices: unknown network %q", name)
			}
			return e.computeNetwork(nw, window, sp, ns, carry[name])
		})
	if err != nil {
		return nil, err
	}
	out := make([]MonthAnalysis, len(res))
	ends := make([][]deviceEnd, len(res))
	for i, r := range res {
		out[i], ends[i] = r.rows[0], r.ends
	}
	e.keepFacts(names, ends)
	sp.Count("networks", float64(len(out)))
	obs.Logger().Debug("incremental inference complete",
		"month", m, "networks", len(out),
		"elapsed", time.Since(start).Round(time.Millisecond))
	return out, nil
}

// walked is one network's walk: its rows and its window-end facts.
type walked struct {
	rows []MonthAnalysis
	ends []deviceEnd
}

// Facts holds, per analyzed network, each device's design facts at the
// end of the last window walked over the network, with the snapshot whose
// config they describe: entry i belongs to the network's i-th device and
// is empty for a device with no snapshot by the window's end. It holds no
// parsed config or stanza. A Facts value is never modified once an engine
// hands it out, so an immutable environment snapshot may keep it.
type Facts map[string][]deviceEnd

// deviceEnd is one device's facts at a window's end and the snapshot
// they were computed from.
type deviceEnd struct {
	snap  *nms.Snapshot
	facts *deviceFacts
}

// SetFacts hands the engine the Facts of an earlier engine over the same
// inventory. A walk reuses a device's facts in place of parsing the
// snapshot entering its window only when they were computed from that
// very snapshot, so facts of any other window's end are never reused,
// and a device without a matching entry is parsed as if no facts were
// handed over.
func (e *Engine) SetFacts(f Facts) {
	e.factsMu.Lock()
	defer e.factsMu.Unlock()
	e.facts = f
}

// Facts returns the window-end facts of every network the engine's
// Analyze and AnalyzeMonth runs walked, read back from the disk tier, or
// SetFacts handed it, the newest per network.
func (e *Engine) Facts() Facts {
	e.factsMu.Lock()
	defer e.factsMu.Unlock()
	return e.facts
}

// keepFacts records a run's window-end facts, ends[i] those of network
// names[i], in a new Facts that shares the other networks' entries.
func (e *Engine) keepFacts(names []string, ends [][]deviceEnd) {
	e.factsMu.Lock()
	defer e.factsMu.Unlock()
	next := make(Facts, max(len(e.facts), len(names)))
	maps.Copy(next, e.facts)
	for i, name := range names {
		if ends[i] == nil {
			delete(next, name)
			continue
		}
		next[name] = ends[i]
	}
	e.facts = next
}
