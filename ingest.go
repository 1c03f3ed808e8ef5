package mpa

// Streaming incremental ingest: Framework.Ingest splices one new month
// of snapshots and tickets into the loaded organization without a
// rebuild or restart. The update is validated first (a rejected update
// changes nothing), then applied copy-on-write: the archive and ticket
// log are cloned (records shared, histories re-sliced), inference runs
// only for the network-months whose inputs changed, the analysis map and
// dataset are re-assembled around the spliced rows, and the new
// environment is swapped in atomically. Queries racing an ingest read
// either the old or the new state, never a mix. The new environment
// starts fresh query memos for the touched networks and shares the
// untouched networks' memos (query.go), so their entries stay warm.
//
// The correctness bar is byte-identity, not freshness: ingesting months
// 1..k one at a time must leave the framework in exactly the state a
// cold rebuild over months 1..k produces — same report digests, same
// rankings, same dataset — at any worker count, cache on or off
// (TestSpliceEquivalence).

import (
	"encoding/json"
	"fmt"
	"time"

	"mpa/internal/dataset"
	"mpa/internal/experiments"
	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/practices"
)

// ingestHist records end-to-end ingest latency in nanoseconds.
var ingestHist = obs.GetLogHistogram("ingest.apply_ns")

// rejectApply accounts one update that failed after validation: unlike a
// validation reject, apply work already ran, so the latency histogram
// must see it too or ingest.apply_ns silently undercounts failed
// applies.
func rejectApply(start time.Time) {
	obs.GetCounter("ingest.rejected").Add(1)
	ingestHist.Observe(float64(time.Since(start).Nanoseconds()))
}

// IngestResult summarizes one applied update.
type IngestResult struct {
	// Month is the update's calendar month.
	Month Month `json:"-"`
	// MonthName is Month in wire form ("YYYY-MM").
	MonthName string `json:"month"`
	// NewMonth reports whether the update extended the study window (vs
	// growing the current final month in place).
	NewMonth bool `json:"new_month"`
	// WindowEnd is the study window's final month after the update.
	WindowEnd string `json:"window_end"`
	// Networks lists the touched networks, sorted — exactly the set
	// whose inference re-ran and whose query-cache entries invalidated.
	Networks  []string `json:"networks"`
	Snapshots int      `json:"snapshots"`
	Tickets   int      `json:"tickets"`
}

// Ingest validates and applies one month of new data to the warm
// framework. The update must carry the current final month (intra-month
// growth: only the touched networks' final month re-infers) or the month
// after it (window extension: every network gains the new month's row).
// Each update infers on a fresh engine handed the current snapshot's
// window-end design facts: a device with no snapshot in the month whose
// facts were computed from the snapshot entering it is not parsed, and
// every other device parses its entering snapshot and diffs the month's
// snapshots. Updates are serialized; queries are never blocked by an
// in-flight ingest.
func (f *Framework) Ingest(u *IngestUpdate) (*IngestResult, error) {
	f.ingestMu.Lock()
	defer f.ingestMu.Unlock()
	start := time.Now()

	env := f.environment()
	sp := env.Obs.Start("ingest")
	defer sp.End()

	// Validate: compile the wire update against the inventory and the
	// current archive. Nothing is applied on error.
	vsp := sp.Start("validate")
	comp, err := u.Compile(env.OSP.Inventory, env.OSP.Archive)
	vsp.End()
	if err != nil {
		obs.GetCounter("ingest.rejected").Add(1)
		return nil, err
	}
	curEnd := env.Params.End
	newMonth := false
	switch comp.Month {
	case curEnd:
	case curEnd.Next():
		newMonth = true
	default:
		obs.GetCounter("ingest.rejected").Add(1)
		return nil, fmt.Errorf("mpa: update month %s does not extend window ending %s (want %s or %s)",
			comp.Month, curEnd, curEnd, curEnd.Next())
	}

	// Apply copy-on-write: clone the substrates and splice the new
	// records in. Readers of the current environment are unaffected —
	// clones share the immutable records and re-slice the histories.
	asp := sp.Start("apply")
	arch := env.OSP.Archive.Clone()
	for _, s := range comp.Snapshots {
		if err := arch.Record(s); err != nil {
			// Compile validated per-device monotonicity; reaching here is
			// an ingest bug, not bad input.
			asp.End()
			rejectApply(start)
			return nil, fmt.Errorf("mpa: splice failed: %w", err)
		}
	}
	tickets := env.OSP.Tickets.Clone()
	for i := range comp.Tickets {
		tickets.File(comp.Tickets[i])
	}
	asp.End()

	// Infer exactly the affected network-months.
	engine := practices.NewEngine(env.OSP.Inventory, arch)
	engine.SetObs(sp)
	engine.SetFacts(env.Facts)
	var names []string
	if newMonth {
		// Every network gains a row for the new month; the untouched ones
		// carry their design facts forward (their month has no changes).
		names = make([]string, 0, len(env.OSP.Inventory.Networks))
		for _, nw := range env.OSP.Inventory.Networks {
			names = append(names, nw.Name)
		}
	} else {
		names = comp.Networks
	}
	rows, err := engine.AnalyzeMonth(comp.Month, names)
	if err != nil {
		rejectApply(start)
		return nil, fmt.Errorf("mpa: incremental inference failed: %w", err)
	}

	// Splice: copy-on-write the analysis map (untouched networks share
	// their row slices), rebuild the dataset, and swap the environment.
	ssp := sp.Start("splice")
	analysis := make(map[string][]practices.MonthAnalysis, len(env.Analysis))
	for name, old := range env.Analysis {
		analysis[name] = old
	}
	for i, name := range names {
		old := analysis[name]
		if newMonth {
			grown := make([]practices.MonthAnalysis, len(old)+1)
			copy(grown, old)
			grown[len(old)] = rows[i]
			analysis[name] = grown
			continue
		}
		replaced := make([]practices.MonthAnalysis, len(old))
		copy(replaced, old)
		spliced := false
		for j := range replaced {
			if replaced[j].Month == comp.Month {
				replaced[j] = rows[i]
				spliced = true
				break
			}
		}
		if !spliced {
			rejectApply(start)
			return nil, fmt.Errorf("mpa: network %q has no analysis row for %s", name, comp.Month)
		}
		analysis[name] = replaced
	}
	data := dataset.BuildObs(analysis, tickets, sp)

	params := env.Params
	params.End = comp.Month // no-op for intra-month updates
	o := *env.OSP           // shallow copy: inventory and ground truth carry over
	o.Params = params
	o.Archive = arch
	o.Tickets = tickets
	env2 := env.Evolve(params, &o, analysis, data, comp.Networks, engine.Facts())

	f.env.Store(env2)
	ssp.End()

	res := &IngestResult{
		Month:     comp.Month,
		MonthName: comp.Month.String(),
		NewMonth:  newMonth,
		WindowEnd: params.End.String(),
		Networks:  comp.Networks,
		Snapshots: len(comp.Snapshots),
		Tickets:   len(comp.Tickets),
	}

	// Push deltas to stream subscribers. Built lazily: with nobody
	// listening the ingest path does no ranking or encoding work.
	psp := sp.Start("publish")
	f.publishIngest(env2, res)
	psp.End()

	sp.Count("snapshots", float64(res.Snapshots))
	sp.Count("tickets", float64(res.Tickets))
	sp.Count("networks", float64(len(res.Networks)))
	obs.GetCounter("ingest.updates").Add(1)
	obs.GetCounter("ingest.snapshots").Add(int64(res.Snapshots))
	obs.GetCounter("ingest.tickets").Add(int64(res.Tickets))
	ingestHist.Observe(float64(time.Since(start).Nanoseconds()))
	obs.Logger().Info("ingest applied",
		"month", res.MonthName, "new_month", res.NewMonth,
		"networks", len(res.Networks), "snapshots", res.Snapshots, "tickets", res.Tickets,
		"elapsed", time.Since(start).Round(time.Millisecond))
	return res, nil
}

// NextMonths generates the months immediately after cfg's window as wire
// updates, one per month — the synthetic monitoring feed behind `mpa
// nextmonth` and `mpa watch -replay`. Generation is prefix-stable
// (TestGenerationPrefixStable): regenerating with a longer window
// reproduces the shorter window's records exactly, so the updates apply
// cleanly to any framework built from the same Config.
func NextMonths(cfg Config, extra int) ([]*IngestUpdate, error) {
	if extra < 1 {
		return nil, fmt.Errorf("mpa: NextMonths needs extra >= 1, got %d", extra)
	}
	p, err := cfg.params()
	if err != nil {
		return nil, err
	}
	base := p.End
	p.End = base.Add(extra)
	o := osp.Generate(p)
	ups := make([]*IngestUpdate, 0, extra)
	for m := base.Next(); !p.End.Before(m); m = m.Next() {
		ups = append(ups, ingest.SliceMonth(o.Archive, o.Tickets, m))
	}
	return ups, nil
}

// Subscribe registers a stream subscriber: after every applied update it
// receives that update's events in one slice, one "delta" event per
// touched network (in sorted network order) followed by one "rank" event
// with the refreshed practice ranking. A subscriber too slow to drain its
// buffer loses whole updates, never part of one. The returned cancel
// must be called to release the subscription; the channel closes after
// cancel.
func (f *Framework) Subscribe() (<-chan []IngestEvent, func()) {
	return f.hub.Subscribe()
}

// publishIngest encodes and publishes the update's events: per-network
// health deltas in sorted order, then the refreshed ranking.
func (f *Framework) publishIngest(env *experiments.Env, res *IngestResult) {
	if f.hub == nil || f.hub.Subscribers() == 0 {
		return
	}
	evs := make([]IngestEvent, 0, len(res.Networks)+1)
	for _, name := range res.Networks {
		nh, err := networkHealth(env, name, res.Month)
		if err != nil {
			obs.Logger().Error("ingest: delta build failed", "network", name, "err", err)
			continue
		}
		b, err := json.Marshal(nh)
		if err != nil {
			continue
		}
		evs = append(evs, IngestEvent{Type: "delta", Data: b})
	}
	type rankEvent struct {
		Month string               `json:"month"`
		Rank  []PracticeDependence `json:"rank"`
	}
	if b, err := json.Marshal(rankEvent{Month: res.MonthName, Rank: experiments.MIRanking(env)}); err == nil {
		evs = append(evs, IngestEvent{Type: "rank", Data: b})
	}
	f.hub.Publish(evs...)
}
