package osp

import (
	"fmt"
	"log/slog"
	"sort"
	"time"

	"mpa/internal/ciscoios"
	"mpa/internal/confmodel"
	"mpa/internal/junos"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/nms"
	"mpa/internal/obs"
	"mpa/internal/par"
	"mpa/internal/rng"
	"mpa/internal/ticketing"
)

// OSP is a fully generated online service provider: the three raw data
// sources MPA consumes (paper §2.1) plus the generator's ground truth for
// validation.
type OSP struct {
	Params    Params
	Inventory *netmodel.Inventory
	Archive   *nms.Archive
	Tickets   *ticketing.Log
	// Truth records, per network and month, the operational activity the
	// generator actually performed. The analytics pipeline never reads
	// it; tests use it to validate inference and causal recovery.
	Truth map[string]map[months.Month]MonthTruth
	// Traits records per-network latent traits for validation.
	Traits map[string]Traits
}

// Traits is the exported view of a network's latent generator profile.
type Traits struct {
	EventRate       float64
	AutomationProp  float64
	DevicesPerEvent float64
	VLANCount       int
	UsesBGP         bool
	UsesOSPF        bool
	Interconnect    bool
}

var (
	ciscoDialect confmodel.Dialect = ciscoios.Dialect{}
	junosDialect confmodel.Dialect = junos.Dialect{}
)

func dialectFor(v netmodel.Vendor) confmodel.Dialect {
	if v == netmodel.VendorCisco {
		return ciscoDialect
	}
	return junosDialect
}

// Generate synthesizes an OSP from the given parameters. The same
// parameters produce an identical OSP.
func Generate(p Params) *OSP { return GenerateObs(p, nil) }

// netStreams carries one network's private RNG streams. The streams are
// forked from the root generator sequentially — Fork advances the parent
// state, so the fork order is part of the deterministic contract — after
// which every draw a network makes is private, and networks can be
// generated in any order or concurrently.
type netStreams struct {
	r *rng.RNG
	// tickets is a private stream so that health-model changes never
	// perturb the generated topology or change history.
	tickets *rng.RNG
}

// netResult is one network's generated output, built against private
// archive and ticket logs so network generation can run concurrently and
// be merged in index order afterwards.
type netResult struct {
	name    string
	network *netmodel.Network
	traits  Traits
	truth   map[months.Month]MonthTruth
	archive *nms.Archive
	tickets *ticketing.Log
	devices int
	events  int
}

// GenerateObs is Generate with observability: generation runs under a
// "generate" span (a child per network) and maintains the osp.* counter
// family. A nil parent skips the span tree but keeps the counters.
//
// Networks are generated on up to par.Workers goroutines and merged in
// network-index order; the resulting OSP is byte-identical at every
// worker count.
func GenerateObs(p Params, parent *obs.Span) *OSP {
	sp := parent.Start("generate")
	defer sp.End()
	log := obs.Logger()
	root := rng.New(p.Seed)
	out := &OSP{
		Params:    p,
		Inventory: &netmodel.Inventory{},
		Archive:   nms.NewArchive(),
		Tickets:   ticketing.NewLog(),
		Truth:     map[string]map[months.Month]MonthTruth{},
		Traits:    map[string]Traits{},
	}
	for _, acct := range specialAccounts {
		out.Archive.MarkSpecialAccount(acct)
	}

	window := p.Months()
	streams := make([]netStreams, p.Networks)
	for idx := range streams {
		r := root.Fork(uint64(idx) + 1)
		streams[idx] = netStreams{r: r, tickets: r.Fork(0x71c7)}
	}

	pt := obs.StartProgress("generate", int64(p.Networks))
	results, _ := par.Map(streams, func(idx int, ns netStreams) (*netResult, error) {
		res := generateNetwork(p, idx, ns, window, sp, log)
		pt.Add(1)
		return res, nil
	})
	pt.Done()

	// Merge in network-index order — the exact order the sequential loop
	// appended inventory entries and filed tickets in.
	totalSnaps, totalTickets := 0, 0
	for _, res := range results {
		out.Inventory.Networks = append(out.Inventory.Networks, res.network)
		out.Traits[res.name] = res.traits
		out.Truth[res.name] = res.truth
		out.Archive.Merge(res.archive)
		for _, t := range res.tickets.All() {
			out.Tickets.File(*t) // File reassigns the global sequential ID
		}
		snaps, tickets := res.archive.SnapshotCount(), res.tickets.Len()
		totalSnaps += snaps
		totalTickets += tickets
		sp.Count("networks", 1)
		sp.Count("devices", float64(res.devices))
		sp.Count("snapshots", float64(snaps))
		sp.Count("tickets", float64(tickets))
		sp.Count("events", float64(res.events))
	}
	obs.GetCounter("osp.networks").Add(int64(p.Networks))
	obs.GetCounter("osp.snapshots").Add(int64(totalSnaps))
	obs.GetCounter("osp.tickets").Add(int64(totalTickets))
	log.Info("osp generated",
		"networks", p.Networks, "months", len(window),
		"snapshots", totalSnaps, "tickets", totalTickets, "seed", p.Seed)
	return out
}

// generateNetwork synthesizes one network — profile, inventory, initial
// import, monthly change events, and tickets — entirely from its private
// RNG streams into private archive and ticket logs.
func generateNetwork(p Params, idx int, ns netStreams, window []months.Month, parent *obs.Span, log *slog.Logger) *netResult {
	r := ns.r
	pr := newProfile(idx, r)
	nsp := parent.Start(pr.name)
	defer nsp.End()
	st := buildNetwork(pr, r)
	res := &netResult{
		name:    pr.name,
		network: st.network,
		archive: nms.NewArchive(),
		tickets: ticketing.NewLog(),
		truth:   map[months.Month]MonthTruth{},
		devices: len(st.devices),
		traits: Traits{
			EventRate:       pr.eventRate,
			AutomationProp:  pr.autoProp,
			DevicesPerEvent: pr.devicesPerEvent,
			VLANCount:       pr.vlanCount,
			UsesBGP:         pr.useBGP,
			UsesOSPF:        pr.useOSPF,
			Interconnect:    pr.interconnect,
		},
	}
	for _, acct := range specialAccounts {
		res.archive.MarkSpecialAccount(acct)
	}

	// Initial import: one snapshot per device at the window start.
	importTime := p.Start.Start()
	lastSnap := map[string]lastSnapshot{}
	for _, dev := range st.devices {
		recordSnapshot(res.archive, st, dev, importTime, "initial-import", lastSnap)
	}

	for _, m := range window {
		mt := simulateMonth(res.archive, st, m, lastSnap)
		res.truth[m] = mt
		res.events += mt.Events
		emitTickets(res.tickets, st, m, mt, ns.tickets)
	}

	nsp.Count("devices", float64(res.devices))
	nsp.Count("snapshots", float64(res.archive.SnapshotCount()))
	nsp.Count("tickets", float64(res.tickets.Len()))
	nsp.Count("events", float64(res.events))
	log.Debug("network generated",
		"network", pr.name, "devices", res.devices,
		"snapshots", res.archive.SnapshotCount(), "tickets", res.tickets.Len(),
		"events", res.events)
	return res
}

// plannedEvent is one change event scheduled within a month.
type plannedEvent struct {
	start time.Time
	kind  changeKind
	count int // devices to change
}

// simulateMonth applies a month of operational activity to the network,
// archiving snapshots into a, and returns the ground-truth record.
func simulateMonth(a *nms.Archive, st *netState, m months.Month, lastSnap map[string]lastSnapshot) MonthTruth {
	r := st.r
	pr := st.profile
	nEvents := r.Poisson(pr.eventRate)
	monthStart := m.Start()
	monthSpan := m.End().Sub(monthStart)

	// Schedule events at sorted random times so configuration state
	// evolves chronologically.
	// Leave headroom at the end of the month so a long edit session's
	// snapshots cannot spill into the next month (the ground truth
	// attributes every change to its event's month, and the inference
	// pipeline must agree exactly).
	const sessionHeadroom = 6 * time.Hour
	usableSpan := monthSpan - sessionHeadroom
	plans := make([]plannedEvent, 0, nEvents)
	for i := 0; i < nEvents; i++ {
		kind := changeKind(r.Choice(pr.kindWeights))
		count := 1 + r.Poisson(pr.devicesPerEvent)
		plans = append(plans, plannedEvent{
			start: monthStart.Add(time.Duration(r.Float64() * float64(usableSpan))),
			kind:  kind,
			count: count,
		})
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].start.Before(plans[j].start) })

	var mt MonthTruth
	devicesChanged := map[string]bool{}
	monthTypes := map[confmodel.Type]bool{}
	totalEventDevices := 0
	autoEvents := 0
	for _, plan := range plans {
		muts := st.applyEvent(plan.kind, plan.count)
		if len(muts) == 0 {
			continue
		}

		// Event modality: automated with probability scaled by the kind's
		// automation bias; a small share of automated events run under a
		// personal login and are therefore misclassified by the NMS.
		pAuto := pr.autoProp * kindAutomationBias(plan.kind)
		if pAuto > 0.97 {
			pAuto = 0.97
		}
		automated := r.Bool(pAuto)
		loggedAuto := false
		login := operatorPool[r.Intn(len(operatorPool))]
		if automated && !r.Bool(pr.scriptUnderUser) {
			// The remainder are scripts under a personal account, counted
			// manual by the NMS's conservative rule.
			login = specialAccounts[r.Intn(len(specialAccounts))]
			loggedAuto = true
		}

		// Record snapshots, spacing device changes a few tens of seconds
		// apart so the 5-minute grouping heuristic recovers the event.
		// A device's edit session often triggers several snapshots (the
		// NMS snapshots on every syslog config-change alert), so each
		// device contributes a variable number of configuration changes
		// per event — which is why the paper's per-device change count
		// (O1) is a distinct practice from its event count (O4). Only
		// mutations that actually changed the configuration count.
		typesTouched := map[confmodel.Type]bool{}
		touchesMbox := false
		eventDevices := 0
		t := plan.start
		for _, mut := range muts {
			deviceChanged := false
			edits := 1 + r.Poisson(pr.editRate)
			for e := 0; e < edits; e++ {
				extraTypes := mut.types
				if e > 0 {
					// Follow-up edits within the session touch the same
					// construct family (a VLAN addition is followed by
					// VLAN tweaks, not further additions).
					kind := plan.kind
					if kind == ckVLANAdd {
						kind = ckVLANEdit
					}
					extraTypes = st.mutateDevice(mut.device, kind, 0)
				}
				changed := recordSnapshot(a, st, mut.device, t, login, lastSnap)
				t = t.Add(time.Duration(10+r.Intn(90)) * time.Second)
				if !changed {
					continue
				}
				deviceChanged = true
				mt.DeviceChanges++
				for _, ty := range extraTypes {
					typesTouched[ty] = true
				}
			}
			if !deviceChanged {
				continue
			}
			eventDevices++
			devicesChanged[mut.device.Name] = true
			if mut.device.Role.IsMiddlebox() {
				touchesMbox = true
			}
		}
		if eventDevices == 0 {
			continue // every mutation was a no-op: no event occurred
		}
		mt.Events++
		totalEventDevices += eventDevices
		if loggedAuto {
			autoEvents++
		}
		if typesTouched[confmodel.TypeACL] {
			mt.FracACLEvents++
		}
		if typesTouched[confmodel.TypeInterface] {
			mt.FracIfaceEvents++
		}
		if typesTouched[confmodel.TypeBGP] || typesTouched[confmodel.TypeOSPF] {
			mt.FracRouterEvts++
		}
		if touchesMbox {
			mt.FracMboxEvents++
		}
		for ty := range typesTouched {
			monthTypes[ty] = true
		}
	}
	mt.DevicesChanged = len(devicesChanged)
	if mt.Events > 0 {
		mt.DevicesPerEvent = float64(totalEventDevices) / float64(mt.Events)
		mt.FracACLEvents /= float64(mt.Events)
		mt.FracIfaceEvents /= float64(mt.Events)
		mt.FracRouterEvts /= float64(mt.Events)
		mt.FracMboxEvents /= float64(mt.Events)
		mt.FracAutomated = float64(autoEvents) / float64(mt.Events)
	}
	mt.ChangeTypes = len(monthTypes)
	return mt
}

// lastSnapshot is what the generator remembers of a device's latest
// snapshot: its time, to keep the history strictly increasing, and the
// structural fingerprint of its configuration, to tell a real change from
// a no-op mutation.
type lastSnapshot struct {
	time time.Time
	fp   string
}

// recordSnapshot renders the device's current configuration and archives
// it, enforcing per-device time monotonicity. It reports whether the
// configuration actually differs from the device's previous snapshot —
// a mutation may be a no-op (e.g. an edit that re-set an option to its
// existing value), which the NMS would not count as a change either.
func recordSnapshot(a *nms.Archive, st *netState, dev *netmodel.Device, t time.Time, login string, lastSnap map[string]lastSnapshot) bool {
	last, seen := lastSnap[dev.Name]
	if seen && !t.After(last.time) {
		t = last.time.Add(time.Second)
	}
	cfg := st.configs[dev.Name]
	fp := cfg.Fingerprint()
	lastSnap[dev.Name] = lastSnapshot{time: t, fp: fp}
	snap := &nms.Snapshot{
		Device: dev.Name,
		Time:   t,
		Login:  login,
		Text:   dialectFor(dev.Vendor).Render(cfg),
	}
	if err := a.Record(snap); err != nil {
		// Monotonicity is enforced above; a failure here is a generator bug.
		panic(fmt.Sprintf("osp: snapshot record failed: %v", err))
	}
	return !seen || last.fp != fp
}

var symptoms = []string{
	"packet-loss", "high-latency", "link-down", "device-unreachable",
	"bgp-flap", "vip-unhealthy", "config-push-failed", "cpu-high",
}

// emitTickets draws the month's tickets from the calibrated ground-truth
// health model and files them into log.
func emitTickets(log *ticketing.Log, st *netState, m months.Month, mt MonthTruth, r *rng.RNG) {
	pr := st.profile
	models := len(st.network.Models())
	roles := len(st.network.Roles())
	w := DefaultHealthWeights()
	lambda := w.Lambda(len(st.devices), len(st.vlanIDs), models, roles, mt, r)
	n := r.Poisson(lambda)
	monthStart := m.Start()
	span := m.End().Sub(monthStart)
	for i := 0; i < n; i++ {
		opened := monthStart.Add(time.Duration(r.Float64() * float64(span)))
		resolve := opened.Add(time.Duration(1+r.Intn(72)) * time.Hour)
		if r.Bool(0.1) {
			// Tickets sometimes are not marked resolved until well after
			// the fix (paper §2.2) — inflate the recorded latency.
			resolve = resolve.Add(time.Duration(r.Intn(14*24)) * time.Hour)
		}
		origin := ticketing.OriginAlarm
		if r.Bool(0.25) {
			origin = ticketing.OriginUserReport
		}
		devs := []string{st.devices[r.Intn(len(st.devices))].Name}
		if r.Bool(0.3) && len(st.devices) > 1 {
			devs = append(devs, st.devices[r.Intn(len(st.devices))].Name)
		}
		log.File(ticketing.Ticket{
			Network:  pr.name,
			Devices:  devs,
			Origin:   origin,
			Opened:   opened,
			Resolved: resolve,
			Symptom:  symptoms[r.Intn(len(symptoms))],
			Notes:    "auto-generated diagnosis trail",
		})
	}
	// Planned maintenance (excluded from health by the pipeline).
	for i := 0; i < r.Poisson(w.MaintenanceRate); i++ {
		opened := monthStart.Add(time.Duration(r.Float64() * float64(span)))
		log.File(ticketing.Ticket{
			Network:  pr.name,
			Origin:   ticketing.OriginMaintenance,
			Opened:   opened,
			Resolved: opened.Add(4 * time.Hour),
			Symptom:  "planned-maintenance",
		})
	}
}
