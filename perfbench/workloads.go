package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpa/internal/loadgen"
	"mpa/internal/tenant"
)

// Workload sizes. warm_serve and ingest_refresh use the default synthetic
// org (osp.Small); cold_start and restart the same org over bench_test.go's
// eight months.
const (
	coldNetworks, coldMonths = 60, 8
	warmNetworks, warmMonths = 60, 6
	ingestMonths             = 12 // ingest_refresh grows the window 6 → 18
	minColdReps              = 4
	warmBuilds               = 3 // daemon builds per run on warm_serve
	ingestBuilds             = 3 // and on ingest_refresh
	warmSeqLen               = 1 << 16
	warmCausal               = 4 // causal pool: the top-ranked practices
	fleetPercent             = 5
	loopWindow               = 500 * time.Millisecond
)

// Generator seeds of the workloads' organizations. They are fixed: the
// org-to-org spread of a seeded generator (heavy-tailed device counts)
// moves every cost by more than any bound a regression gate could use,
// so --seed varies what the clients ask instead — the probe network,
// the warm request sequence, the side-read order.
const (
	coldOrgSeed   = 77 // bench_test.go's organization
	ingestOrgSeed = 21
)

var warmOrgSeeds = [2]uint64{1, 2}

var (
	coldReports    = []string{"table3", "table7", "table8", "figure8", "table9"}
	refreshReports = []string{"table3", "table7", "table9"}
)

func (r *run) probe(g *org) string { return g.networks[int(r.seed%uint64(len(g.networks)))] }

// coldStart runs repetitions of: build a fresh daemon over the org, answer
// the cold set in order on one connection, then let the next month
// arrive and answer the refresh set on two. With disk set (restart) the
// daemon's cache has an on-disk tier populated off the clock by one full
// repetition, so set-up reads it instead of parsing and inferring.
func (r *run) coldStart(disk bool) error {
	g, err := genOrg("org-a", coldOrgSeed, coldNetworks, coldMonths, 1)
	if err != nil {
		return err
	}
	probe := r.probe(g)
	rf, err := newReference(g, g.end)
	if err != nil {
		return err
	}
	cold := []*request{get("rank", g.name, "/v1/rank", false, rf.checkRank())}
	netCheck, err := rf.checkNetwork(probe, g.end)
	if err != nil {
		return err
	}
	cold = append(cold, get("network", g.name, netPath("network", probe, g.end), false, netCheck))
	rest, err := refreshSet(rf, g, rf.top(3), probe, g.end, coldReports)
	if err != nil {
		return err
	}
	// refreshSet orders rank, causal…, predict, reports; the cold set asks
	// for the prediction before the causal analyses.
	cold = append(cold, rest[4])
	cold = append(cold, rest[1:4]...)
	cold = append(cold, rest[5:]...)
	// The refresh answers are checked to decode on the first repetition
	// and to repeat byte for byte on every later one (ingest_refresh
	// holds the splice ≡ rebuild check against a cold build).
	refresh, err := refreshSet(nil, g, rf.top(2), probe, g.end.Next(), refreshReports)
	if err != nil {
		return err
	}
	rf = nil
	post := postUpdate(g, 0)

	cacheDir := ""
	if disk {
		cacheDir = filepath.Join(r.dir, "cache")
		rep, err := r.coldRep(g, cacheDir, cold, post, refresh, nil, false)
		if err != nil {
			return err
		}
		if err := rep.d.stop(); err != nil {
			return err
		}
		pin(refresh, rep.st.refreshBodies)
	}

	ph := r.beginPhase()
	var setups, firsts, caps, ingests, refreshes, heaps []float64
	perRequest := make([][]float64, len(cold)) // latency of each cold-set request, per repetition
	start := time.Now()
	for rep := 0; rep < minColdReps || time.Since(start) < r.seconds; rep++ {
		res, err := r.coldRep(g, cacheDir, cold, post, refresh, ph, rep%2 == 0)
		if err != nil {
			return err
		}
		if err := res.d.stop(); err != nil {
			return err
		}
		if rep == 0 && !disk {
			pin(refresh, res.st.refreshBodies)
		}
		setups = append(setups, secs(res.setup))
		firsts = append(firsts, secs(res.first))
		caps = append(caps, float64(len(res.lats))/res.first.Seconds())
		for i, l := range res.lats {
			perRequest[i] = append(perRequest[i], ms(l))
		}
		heaps = append(heaps, res.heap)
		ingests = append(ingests, ms(res.st.ingest))
		refreshes = append(refreshes, ms(res.st.refresh))
	}
	ph.end()
	r.set("setup_s", "s", median(setups))
	r.set("first_answer_s", "s", median(firsts))
	r.set("capacity_per_s", "1/s", median(caps))
	// The cold set mixes 0.3 ms and 800 ms queries, so its percentiles sit
	// on the edges between clusters of requests; each request's median over
	// the repetitions keeps one slow repetition from moving them.
	typical := make([]time.Duration, len(cold))
	for i, ls := range perRequest {
		typical[i] = time.Duration(median(ls) * 1e6)
	}
	r.set("p50_ms", "ms", quantileMS(typical, 0.50))
	r.set("p99_ms", "ms", quantileMS(typical, 0.99))
	r.set("ingest_ms", "ms", median(ingests))
	r.set("refresh_ms", "ms", median(refreshes))
	r.set("heap_mb", "MB", median(heaps))
	if r.tr == nil {
		return nil
	}
	// One more repetition, off the record, leaves a daemon whose answers
	// are warm for the per-layer handler replay.
	res, err := r.coldRep(g, cacheDir, cold, post, refresh, nil, false)
	if err != nil {
		return err
	}
	defer res.d.stop()
	return r.layers(g, cacheDir, res.d, ph, append(cold, refresh...))
}

type repResult struct {
	setup, first time.Duration
	heap         float64
	lats         []time.Duration
	st           step
	d            *daemon
}

// coldRep is one cold_start/restart repetition; the caller stops res.d.
func (r *run) coldRep(g *org, cacheDir string, cold []*request, post *request, refresh []*request, ph *phase, serial bool) (repResult, error) {
	runtime.GC()
	d, setup, err := startDaemon([]*org{g}, cacheDir)
	if err != nil {
		return repResult{}, err
	}
	a, b := newConn(d.base), newConn(d.base)
	defer a.close()
	defer b.close()
	res := repResult{setup: setup, d: d}
	ph.memoBegin(d.frameworks())
	// The cold set is sequential, so each request starts from a collected
	// heap and the set's time is the sum of its latencies.
	for _, q := range cold {
		runtime.GC()
		lat, _ := r.exec(a, q, 0)
		res.lats = append(res.lats, lat)
		res.first += lat
	}
	ph.memoEnd(d.frameworks())
	res.heap = liveHeapMB()
	conns := []*conn{a, b}
	if ph != nil && serial {
		conns = conns[:1]
	}
	res.st = r.monthStep(a, b, post, refresh, conns, nil)
	ph.addRefresh(res.st, len(conns) == 1)
	ph.addStages(d.frameworks())
	return res, nil
}

// warmKey is one distinct question of the warm mix, with its two
// addressings (org path segment, X-MPA-Org header).
type warmKey struct {
	ep       string
	variants [2]*request
}

// warmServe answers every key of the mix's parameter pools once (the
// first answers), then runs a closed loop on two connections for the
// timed phase: loadgen.DefaultMix over two orgs plus a share of fleet
// rankings, every answer compared byte for byte with the primed one.
// Afterwards one month arrives at each org.
func (r *run) warmServe() error {
	orgs := make([]*org, 2)
	parts := make([]tenant.RankPartial, 2)
	pools := make([]map[string][]*warmKey, 2)
	tops := make([][]string, 2)
	var prime []*request
	var keys []*warmKey
	for i, name := range []string{"org-a", "org-b"} {
		g, err := genOrg(name, warmOrgSeeds[i], warmNetworks, warmMonths, 1)
		if err != nil {
			return err
		}
		orgs[i] = g
		rf, err := newReference(g, g.end)
		if err != nil {
			return err
		}
		tops[i] = rf.top(2)
		parts[i] = tenant.RankPartial{Org: name, Cases: rf.f.Dataset().Len(), Rank: rf.rank}
		pool := map[string][]*warmKey{}
		add := func(ep, p string, check func([]byte) error) {
			k := &warmKey{ep: ep, variants: [2]*request{get(ep, name, p, false, check), get(ep, name, p, true, check)}}
			pool[ep] = append(pool[ep], k)
			keys = append(keys, k)
			prime = append(prime, k.variants[0])
		}
		add("rank", "/v1/rank", rf.checkRank())
		add("manifest", "/v1/manifest", validJSON)
		for _, p := range rf.top(warmCausal) {
			c, err := rf.checkCausal(p)
			if err != nil {
				return err
			}
			add("causal", "/v1/causal?practice="+p, c)
		}
		for _, id := range refreshReports {
			c, err := rf.checkReport(id)
			if err != nil {
				return err
			}
			add("report", "/v1/report/"+id, c)
		}
		for _, n := range g.networks {
			for m := g.start; !g.end.Before(m); m = m.Next() {
				c, err := rf.checkNetwork(n, m)
				if err != nil {
					return err
				}
				add("network", netPath("network", n, m), c)
				c, err = rf.checkPredict(n, m)
				if err != nil {
					return err
				}
				add("predict", netPath("predict", n, m), c)
			}
		}
		pools[i] = pool
	}
	fleetWant, err := tenant.MergeRank(parts)
	if err != nil {
		return err
	}
	fleet := &warmKey{ep: "fleet_rank"}
	fleet.variants[0] = &request{ep: "fleet_rank", method: "GET", path: "/v1/fleet/rank", check: func(b []byte) error {
		var got tenant.FleetRank
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("fleet rank: %w", err)
		}
		if got.Orgs != fleetWant.Orgs || got.Cases != fleetWant.Cases || len(got.Entries) != len(fleetWant.Entries) {
			return fmt.Errorf("fleet rank: totals differ from the offline merge")
		}
		for i, e := range fleetWant.Entries {
			if got.Entries[i] != e {
				return fmt.Errorf("fleet rank %d: got %+v, want %+v", i, got.Entries[i], e)
			}
		}
		return nil
	}}
	fleet.variants[1] = fleet.variants[0]
	keys = append(keys, fleet)
	prime = append(prime, fleet.variants[0])

	d, setups, firsts, bodies, err := r.setupAndPrime(orgs, prime, warmBuilds)
	if err != nil {
		return err
	}
	defer d.stop()
	a, b := newConn(d.base), newConn(d.base)
	defer a.close()
	defer b.close()
	// The last prime's answers are what every warm read must reproduce.
	byReq := map[*request][]byte{}
	for i, q := range prime {
		byReq[q] = bodies[i]
	}
	for _, k := range keys {
		if k.ep == "manifest" {
			continue // carries uptime and runtime state
		}
		want := byReq[k.variants[0]]
		k.variants[0].check = equalTo(want)
		k.variants[1].check = equalTo(want)
	}
	heap := liveHeapMB()

	mix, err := loadgen.ParseMix(loadgen.DefaultMix)
	if err != nil {
		return err
	}
	total := 0
	for _, e := range mix {
		total += e.Weight
	}
	rng := rand.New(rand.NewPCG(r.seed, 0x77a4))
	seq := make([]*request, warmSeqLen)
	for i := range seq {
		if rng.IntN(100) < fleetPercent {
			seq[i] = fleet.variants[0]
			continue
		}
		w := rng.IntN(total)
		ep := mix[len(mix)-1].Endpoint
		for _, e := range mix {
			if w < e.Weight {
				ep = e.Endpoint
				break
			}
			w -= e.Weight
		}
		ks := pools[rng.IntN(2)][ep]
		seq[i] = ks[rng.IntN(len(ks))].variants[i%2]
	}

	runtime.GC()
	ph := r.beginPhase()
	if ph != nil {
		ph.fleet = true
	}
	ph.memoBegin(d.frameworks())
	ph.addStagesBefore(d.frameworks())
	caps, p50s, p99s := r.closedLoop([]*conn{a, b}, seq, r.seconds)
	ph.memoEnd(d.frameworks())
	ph.addStages(d.frameworks())
	ph.end()

	var ingests, refreshes []float64
	for i, g := range orgs {
		refresh, err := refreshSet(nil, g, tops[i], r.probe(g), g.end.Next(), refreshReports)
		if err != nil {
			return err
		}
		conns := []*conn{a, b}
		if r.tr != nil && i == 0 {
			conns = conns[:1]
		}
		st := r.monthStep(a, b, postUpdate(g, 0), refresh, conns, nil)
		ph.addRefresh(st, len(conns) == 1)
		ingests = append(ingests, ms(st.ingest))
		refreshes = append(refreshes, ms(st.refresh))
	}
	r.set("setup_s", "s", median(setups))
	r.set("first_answer_s", "s", median(firsts))
	r.set("capacity_per_s", "1/s", median(caps))
	r.set("p50_ms", "ms", median(p50s))
	r.set("p99_ms", "ms", median(p99s))
	r.set("ingest_ms", "ms", median(ingests))
	r.set("refresh_ms", "ms", median(refreshes))
	r.set("heap_mb", "MB", heap)
	if r.tr != nil {
		n := len(seq)
		if n > 20000 {
			n = 20000
		}
		return r.layers(orgs[0], "", d, ph, seq[:n])
	}
	return nil
}

// setupAndPrime builds the daemon builds times, each build followed by
// its first answers (prime, over two connections), and keeps the last.
func (r *run) setupAndPrime(orgs []*org, prime []*request, builds int) (*daemon, []float64, []float64, [][]byte, error) {
	var setups, firsts []float64
	for i := 0; ; i++ {
		runtime.GC()
		d, setup, err := startDaemon(orgs, "")
		if err != nil {
			return nil, nil, nil, nil, err
		}
		a, b := newConn(d.base), newConn(d.base)
		runtime.GC()
		t0 := time.Now()
		_, bodies := r.parallel([]*conn{a, b}, prime, 0)
		setups = append(setups, secs(setup))
		firsts = append(firsts, secs(time.Since(t0)))
		a.close()
		b.close()
		if i == builds-1 {
			return d, setups, firsts, bodies, nil
		}
		if err := d.stop(); err != nil {
			return nil, nil, nil, nil, err
		}
	}
}

// closedLoop sends seq round-robin from every conn, each connection
// sending its next request when the previous answer arrives, for dur. It
// cuts the loop into windows of loopWindow by completion time and returns
// each window's completion rate and latency p50 and p99 (ms), so that a
// burst of interference on the shared machine moves a few windows rather
// than the run's result, which is the median window.
func (r *run) closedLoop(conns []*conn, seq []*request, dur time.Duration) (caps, p50s, p99s []float64) {
	type done struct{ at, lat time.Duration }
	var next atomic.Int64
	per := make([][]done, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for i, c := range conns {
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			local := make([]done, 0, 1<<17)
			for time.Now().Before(deadline) {
				q := seq[int(next.Add(1)-1)%len(seq)]
				lat, _ := r.exec(c, q, 0)
				local = append(local, done{time.Since(start), lat})
			}
			per[i] = local
		}(i, c)
	}
	wg.Wait()
	type window struct {
		first, last time.Duration
		lats        []time.Duration
	}
	windows := make([]window, int(dur/loopWindow))
	for _, l := range per {
		for _, d := range l {
			i := int(d.at / loopWindow)
			if i >= len(windows) {
				continue
			}
			w := &windows[i]
			if len(w.lats) == 0 || d.at < w.first {
				w.first = d.at
			}
			w.last = max(w.last, d.at)
			w.lats = append(w.lats, d.lat)
		}
	}
	for _, w := range windows {
		// Completions between the window's first and last, over the time
		// between them: a rate, not a count of a fixed interval.
		caps = append(caps, float64(len(w.lats)-1)/(w.last-w.first).Seconds())
		p50s = append(p50s, quantileMS(w.lats, 0.50))
		p99s = append(p99s, quantileMS(w.lats, 0.99))
	}
	return caps, p50s, p99s
}

// ingestRefresh grows one org's window month by month. In each cycle
// connection A POSTs the update while B reads per-network summaries of
// networks the update does not touch; when the POST returns, both split
// the refresh set, which the update has made cold.
func (r *run) ingestRefresh() error {
	g, err := genOrg("org-a", ingestOrgSeed, warmNetworks, warmMonths, ingestMonths)
	if err != nil {
		return err
	}
	probe := r.probe(g)
	fixed := g.start // side reads ask about a month inside the original window
	rf, err := newReference(g, g.end)
	if err != nil {
		return err
	}
	top := rf.top(2)
	prime, err := refreshSet(rf, g, top, probe, g.end, refreshReports)
	if err != nil {
		return err
	}
	side := make(map[string]*request, len(g.networks))
	var sideAll []*request
	for _, n := range g.networks {
		c, err := rf.checkNetwork(n, fixed)
		if err != nil {
			return err
		}
		q := get("network", g.name, netPath("network", n, fixed), false, c)
		side[n] = q
		sideAll = append(sideAll, q)
	}
	prime = append(prime, sideAll...)
	lastMonth := g.end.Add(ingestMonths)
	final, err := newReference(g, lastMonth)
	if err != nil {
		return err
	}
	// splice ≡ rebuild: the last cycle's refresh must equal a cold build
	// over all eighteen months.
	finalRefresh, err := refreshSet(final, g, top, probe, lastMonth, refreshReports)
	if err != nil {
		return err
	}
	rf, final = nil, nil

	d, setups, firsts, bodies, err := r.setupAndPrime([]*org{g}, prime, ingestBuilds)
	if err != nil {
		return err
	}
	defer d.stop()
	a, b := newConn(d.base), newConn(d.base)
	defer a.close()
	defer b.close()
	heap := liveHeapMB()
	pin(sideAll, bodies[len(bodies)-len(sideAll):])

	ph := r.beginPhase()
	ph.addStagesBefore(d.frameworks())
	var ingests, refreshes, caps, p50s, p99s []float64
	for k := 0; k < ingestMonths; k++ {
		m := g.end.Add(k + 1)
		// Re-answer every side key so the networks the previous update
		// touched are warm again (off the clock).
		r.parallel([]*conn{b}, sideAll, 0)
		var pool []*request
		for i := range g.networks {
			n := g.networks[(i+int(r.seed))%len(g.networks)]
			if !g.touched[k][n] {
				pool = append(pool, side[n])
			}
		}
		if len(pool) == 0 {
			pool = sideAll
		}
		refresh := finalRefresh
		if k < ingestMonths-1 {
			if refresh, err = refreshSet(nil, g, top, probe, m, refreshReports); err != nil {
				return err
			}
		}
		reads := 0
		var sideLats []time.Duration
		sideFn := func(c *conn, done <-chan struct{}) {
			ph.memoBegin(d.frameworks())
			for i := 0; ; i++ {
				select {
				case <-done:
					ph.memoEnd(d.frameworks())
					reads = i
					return
				default:
				}
				lat, _ := r.exec(c, pool[i%len(pool)], 0)
				sideLats = append(sideLats, lat)
			}
		}
		conns := []*conn{a, b}
		if r.tr != nil && k%2 == 0 {
			conns = conns[:1]
		}
		st := r.monthStep(a, b, postUpdate(g, k), refresh, conns, sideFn)
		ph.addRefresh(st, len(conns) == 1)
		ingests = append(ingests, ms(st.ingest))
		refreshes = append(refreshes, ms(st.refresh))
		caps = append(caps, float64(1+reads+len(refresh))/st.refresh.Seconds())
		p50s = append(p50s, quantileMS(sideLats, 0.50))
		p99s = append(p99s, quantileMS(sideLats, 0.99))
	}
	ph.addStages(d.frameworks())
	ph.end()
	r.set("setup_s", "s", median(setups))
	r.set("first_answer_s", "s", median(firsts))
	r.set("capacity_per_s", "1/s", median(caps))
	r.set("p50_ms", "ms", median(p50s))
	r.set("p99_ms", "ms", median(p99s))
	r.set("ingest_ms", "ms", median(ingests))
	r.set("refresh_ms", "ms", median(refreshes))
	r.set("heap_mb", "MB", heap)
	if r.tr != nil {
		return r.layers(g, "", d, ph, sideAll)
	}
	return nil
}
