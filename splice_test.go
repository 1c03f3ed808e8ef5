package mpa

// The splice≡rebuild equivalence suite: the correctness contract of the
// streaming ingest path (ingest.go) is that a framework grown month by
// month through Framework.Ingest is indistinguishable — report digests,
// ranking, dataset — from one built cold over the same records. The
// expected digests live in testdata/splice-golden.json so a behavior
// drift in either path fails loudly against a recorded truth, not just
// against the other path; refresh with
//
//	go test -run TestSpliceEquivalence -update .

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/osp"
	"mpa/internal/ticketing"
)

var update = flag.Bool("update", false, "rewrite testdata/splice-golden.json")

// spliceParams is the suite's organization: mid-size, five months, so
// the replay covers three window extensions plus an intra-month split.
func spliceParams() osp.Params {
	p := osp.Small(21)
	p.Networks = 8
	p.End = p.Start.Add(4)
	return p
}

// spliceDigests reduces a framework to comparable fingerprints: every
// experiment report's digest, plus digests of the dataset cases and the
// MI ranking.
type spliceDigests struct {
	Reports map[string]string `json:"reports"`
	Dataset string            `json:"dataset"`
	Rank    string            `json:"rank"`
}

func digestsOf(t *testing.T, f *Framework) spliceDigests {
	t.Helper()
	d := spliceDigests{Reports: map[string]string{}}
	for _, r := range f.RunExperiments(nil) {
		if !r.OK {
			t.Fatalf("experiment %s failed", r.ID)
		}
		d.Reports[r.ID] = r.Report.Digest()
	}
	jsonDigest := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%x", sha256.Sum256(b))
	}
	d.Dataset = jsonDigest(f.Dataset().Cases)
	d.Rank = jsonDigest(f.RankPractices())
	return d
}

// roundTrip pushes an update through its wire encoding — the replayed
// bytes are exactly what a monitoring feed would POST.
func roundTrip(t *testing.T, u *ingest.Update) *IngestUpdate {
	t.Helper()
	b, err := json.Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := ingest.Decode(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return u2
}

// buildIncremental truncates the organization to its first two months,
// builds a framework over that prefix, then ingests the remaining months
// one at a time — the final month split into two updates so the
// intra-month growth path is part of the replay.
func buildIncremental(t *testing.T, o *osp.OSP, cc CacheConfig) (*Framework, int) {
	t.Helper()
	p := o.Params
	cut := p.Start.Add(1)
	arch, log := ingest.Truncate(o.Archive, o.Tickets, cut)
	f, err := NewCached(o.Inventory, arch, log, p.Start, cut, cc)
	if err != nil {
		t.Fatal(err)
	}
	ingests := 0
	for m := cut.Next(); !p.End.Before(m); m = m.Next() {
		u := ingest.SliceMonth(o.Archive, o.Tickets, m)
		if m == p.End && len(u.Snapshots) > 1 && len(u.Tickets) > 0 {
			// Final month in two halves: first extends the window, the
			// second grows it in place.
			head := &ingest.Update{Month: u.Month, Snapshots: u.Snapshots[:len(u.Snapshots)/2]}
			tail := &ingest.Update{Month: u.Month, Snapshots: u.Snapshots[len(u.Snapshots)/2:], Tickets: u.Tickets}
			for _, part := range []*ingest.Update{head, tail} {
				res, err := f.Ingest(roundTrip(t, part))
				if err != nil {
					t.Fatalf("ingest %s (split): %v", m, err)
				}
				if want := part == head; res.NewMonth != want {
					t.Fatalf("ingest %s (split): NewMonth=%v, want %v", m, res.NewMonth, want)
				}
				ingests++
			}
			continue
		}
		res, err := f.Ingest(roundTrip(t, u))
		if err != nil {
			t.Fatalf("ingest %s: %v", m, err)
		}
		if !res.NewMonth || res.WindowEnd != m.String() {
			t.Fatalf("ingest %s: result %+v, want window extension to %s", m, res, m)
		}
		ingests++
	}
	return f, ingests
}

// TestSpliceEquivalence is the suite: golden-backed digests of the full
// rebuild, then incremental replicas at workers 1 and 8, cache off and
// on, every one byte-identical to the golden truth. It also pins that the
// incremental path never re-ran full inference: "inference" executes once
// at construction, each applied update adds one "ingest" stage.
func TestSpliceEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("splice equivalence suite is slow; skipped with -short")
	}
	o := osp.Generate(spliceParams())
	goldenPath := filepath.Join("testdata", "splice-golden.json")

	full, err := NewCached(o.Inventory, o.Archive, o.Tickets, o.Params.Start, o.Params.End, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	fullDigests := digestsOf(t, full)

	if *update {
		b, err := json.MarshalIndent(fullDigests, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var golden spliceDigests
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fullDigests, golden) {
		t.Fatalf("full rebuild drifted from golden digests (refresh with -update if intended):\n got %+v\nwant %+v",
			fullDigests, golden)
	}

	for _, workers := range []int{1, 8} {
		for _, cached := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d/cache=%v", workers, cached)
			t.Run(name, func(t *testing.T) {
				// Every pool of the build, the ingests and the reports
				// runs at this replica's width.
				SetWorkers(workers)
				defer SetWorkers(0)
				var cc CacheConfig
				if cached {
					cc.Dir = t.TempDir()
				}
				inc, ingests := buildIncremental(t, o, cc)
				got := digestsOf(t, inc)
				if !reflect.DeepEqual(got, golden) {
					for id, d := range got.Reports {
						if d != golden.Reports[id] {
							t.Errorf("report %s: digest %s, want %s", id, d, golden.Reports[id])
						}
					}
					if got.Dataset != golden.Dataset {
						t.Errorf("dataset digest %s, want %s", got.Dataset, golden.Dataset)
					}
					if got.Rank != golden.Rank {
						t.Errorf("rank digest %s, want %s", got.Rank, golden.Rank)
					}
					t.Fatal("incremental framework diverged from full rebuild")
				}
				if calls := inc.StageCalls("inference"); calls != 1 {
					t.Errorf("inference stage ran %d times, want exactly 1 (construction)", calls)
				}
				if calls := inc.StageCalls("ingest"); calls != ingests {
					t.Errorf("ingest stage ran %d times, want %d (one per applied update)", calls, ingests)
				}
			})
		}
	}

	// The restart path: a framework built from a populated on-disk tier,
	// then grown by ingest, must match the golden too. Ingest never reads
	// the per-network tier, so every disk hit comes from construction.
	t.Run("cache=disk-warm", func(t *testing.T) {
		cc := CacheConfig{Dir: t.TempDir()}
		buildIncremental(t, o, cc)
		hits := obs.GetCounter("cache.practices.disk_hits")
		before := hits.Value()
		inc, _ := buildIncremental(t, o, cc)
		if got := hits.Value() - before; got < int64(len(o.Inventory.Networks)) {
			t.Errorf("disk-warm build took %d per-network disk hits, want >= %d", got, len(o.Inventory.Networks))
		}
		if got := digestsOf(t, inc); !reflect.DeepEqual(got, golden) {
			t.Fatalf("disk-warm incremental framework diverged from full rebuild:\n got %+v\nwant %+v", got, golden)
		}
		if calls := inc.StageCalls("inference"); calls != 1 {
			t.Errorf("inference stage ran %d times, want exactly 1 (construction)", calls)
		}
	})
}

// TestIngestRejectsLeaveStateUntouched pins that a rejected update is
// free: wrong months, unknown devices, and malformed records all error
// without swapping the environment or its query memos.
func TestIngestRejectsLeaveStateUntouched(t *testing.T) {
	p := spliceParams()
	p.Networks = 4
	o := osp.Generate(p)
	f, err := NewCached(o.Inventory, o.Archive, o.Tickets, p.Start, p.End, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	envBefore := f.environment()
	rankBefore := f.RankPractices()
	dev := o.Inventory.Networks[0].Devices[0].Name

	bad := []*IngestUpdate{
		// A month that does not extend the window.
		ingest.SliceMonth(o.Archive, o.Tickets, p.Start),
		// The right month, unknown device.
		{Month: p.End.Next().String(), Snapshots: []ingest.SnapshotEntry{
			{Device: "no-such-device", Time: p.End.Next().Start(), Login: "x", Text: "hostname x\n"}}},
		// A gap: two months past the window end.
		{Month: p.End.Add(2).String(), Snapshots: []ingest.SnapshotEntry{
			{Device: dev, Time: p.End.Add(2).Start(), Login: "x", Text: "hostname x\n"}}},
		// Empty update.
		{Month: p.End.Next().String()},
	}
	for i, u := range bad {
		if _, err := f.Ingest(u); err == nil {
			t.Fatalf("bad update %d accepted", i)
		}
	}
	if f.environment() != envBefore {
		t.Fatal("rejected update swapped the environment")
	}
	// The memoized rank must still be served from the same snapshot.
	stats := f.QueryCacheStats()
	rankAfter := f.RankPractices()
	if &rankBefore[0] != &rankAfter[0] {
		t.Fatal("rejected update invalidated the warm rank memo")
	}
	if d := f.QueryCacheStats().MemHits - stats.MemHits; d != 1 {
		t.Fatalf("warm rank after rejects: %d cache hits, want 1", d)
	}
}

// TestIngestCacheInvalidationPrecision is the invalidation property
// test: after an ingest touching network set S, per-network warm queries
// must miss for every network in S and hit for every network outside it,
// while whole-organization memos (the ranking) miss exactly once — and
// full inference never re-runs.
func TestIngestCacheInvalidationPrecision(t *testing.T) {
	p := spliceParams()
	o := osp.Generate(p)
	f, err := NewCached(o.Inventory, o.Archive, o.Tickets, p.Start, p.End, CacheConfig{})
	if err != nil {
		t.Fatal(err)
	}
	m := p.End
	networks := make([]string, 0, len(o.Inventory.Networks))
	for _, nw := range o.Inventory.Networks {
		networks = append(networks, nw.Name)
	}

	// Warm one per-network entry per network plus the global ranking.
	for _, n := range networks {
		if _, err := f.NetworkHealthCached(n, m); err != nil {
			t.Fatalf("warm %s: %v", n, err)
		}
	}
	f.RankPractices()
	base := f.QueryCacheStats()

	// Re-query everything warm: all hits, no misses.
	for _, n := range networks {
		if _, err := f.NetworkHealthCached(n, m); err != nil {
			t.Fatal(err)
		}
	}
	f.RankPractices()
	warm := f.QueryCacheStats()
	if d := warm.MemHits - base.MemHits; d != int64(len(networks)+1) {
		t.Fatalf("warm pass: %d hits, want %d", d, len(networks)+1)
	}
	if d := warm.MemMisses - base.MemMisses; d != 0 {
		t.Fatalf("warm pass: %d misses, want 0", d)
	}

	// Craft an intra-month update touching exactly two networks: one via
	// a snapshot (re-sent final config, so even the analysis is
	// unchanged — the invalidation must still fire), one via a ticket.
	snapNet, ticketNet := networks[0], networks[len(networks)-1]
	dev := o.Inventory.Networks[0].Devices[0].Name
	hist := o.Archive.Snapshots(dev)
	last := hist[len(hist)-1]
	u := &IngestUpdate{
		Month: m.String(),
		Snapshots: []ingest.SnapshotEntry{
			{Device: dev, Time: m.End().Add(-1), Login: "ops", Text: last.Text},
		},
		Tickets: []ingest.TicketEntry{
			{Network: ticketNet, Origin: "user-report", Opened: m.End().Add(-1)},
		},
	}
	res, err := f.Ingest(u)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{snapNet, ticketNet}; !reflect.DeepEqual(res.Networks, want) {
		t.Fatalf("touched networks %v, want %v", res.Networks, want)
	}
	touched := map[string]bool{snapNet: true, ticketNet: true}

	pre := f.QueryCacheStats()
	for _, n := range networks {
		nh, err := f.NetworkHealthCached(n, m)
		if err != nil {
			t.Fatal(err)
		}
		if n == ticketNet {
			// The new ticket must be visible in the recomputed entry.
			want := f.State().Tickets.HealthCounts()[ticketing.NetworkMonth{Network: n, Month: m}]
			if nh.Tickets != want {
				t.Fatalf("%s: cached tickets %d, want %d after ingest", n, nh.Tickets, want)
			}
		}
	}
	post := f.QueryCacheStats()
	// Untouched networks hit; touched networks miss.
	wantHits := int64(len(networks) - len(touched))
	wantMisses := int64(len(touched))
	if d := post.MemHits - pre.MemHits; d != wantHits {
		t.Errorf("per-network queries after ingest: %d hits, want %d (untouched networks must stay warm)",
			d, wantHits)
	}
	if d := post.MemMisses - pre.MemMisses; d != wantMisses {
		t.Errorf("per-network queries after ingest: %d misses, want %d (touched networks must recompute)",
			d, wantMisses)
	}

	// The global ranking memo was invalidated exactly once.
	pre = f.QueryCacheStats()
	f.RankPractices()
	f.RankPractices()
	post = f.QueryCacheStats()
	if d := post.MemMisses - pre.MemMisses; d != 1 {
		t.Errorf("rank after ingest: %d misses, want 1 (one cold rebuild)", d)
	}
	if d := post.MemHits - pre.MemHits; d != 1 {
		t.Errorf("rank after ingest: %d hits, want 1", d)
	}

	// Precision's backstop: no full inference re-ran for any of this.
	if calls := f.StageCalls("inference"); calls != 1 {
		t.Errorf("inference stage ran %d times, want 1", calls)
	}
}

// TestQueriesNeverMixSnapshots races readers against month-by-month
// ingests: every answer RankPractices, NetworkHealthCached, and
// PredictNetworkMonth return must equal the answer a cold build over one
// of the k+1 windows gives. A prediction whose case and two models came
// from different snapshots, or a memo answer computed from another
// snapshot's data, would match no window.
func TestQueriesNeverMixSnapshots(t *testing.T) {
	const extra = 2
	cfg := SmallConfig(21)
	cfg.Networks = 6
	cfg.End = cfg.Start.Add(2)
	ups, err := NextMonths(cfg, extra)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.params()
	if err != nil {
		t.Fatal(err)
	}
	p.End = p.End.Add(extra)
	o := osp.Generate(p)
	var names []string
	for _, nw := range o.Inventory.Networks {
		names = append(names, nw.Name)
	}

	// answer runs one query and renders its result or error canonically.
	type query struct {
		kind, network string
		m             Month
	}
	answer := func(f *Framework, q query) string {
		var v any
		var err error
		switch q.kind {
		case "rank":
			v = f.RankPractices()
		case "health":
			v, err = f.NetworkHealthCached(q.network, q.m)
		case "predict":
			v, err = f.PredictNetworkMonth(q.network, q.m)
		}
		if err != nil {
			return "error: " + err.Error()
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Error(err)
		}
		return string(b)
	}
	queries := []query{{kind: "rank"}}
	for _, n := range names {
		for m := p.Start; !p.End.Before(m); m = m.Next() {
			queries = append(queries, query{"health", n, m}, query{"predict", n, m})
		}
	}

	// The offline truth: a cold build per window end.
	allowed := make(map[query]map[string]bool, len(queries))
	for _, q := range queries {
		allowed[q] = map[string]bool{}
	}
	final := make(map[query]string, len(queries))
	var live *Framework
	for end := cfg.End; !p.End.Before(end); end = end.Next() {
		arch, log := ingest.Truncate(o.Archive, o.Tickets, end)
		f, err := NewCached(o.Inventory, arch, log, p.Start, end, CacheConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			final[q] = answer(f, q)
			allowed[q][final[q]] = true
		}
		if live == nil {
			live = f // the base window's build is the one that ingests
		}
	}

	// Readers sweep the queries while the updates land one by one; the
	// writer lets them make progress between updates.
	var reads atomic.Int64
	done := make(chan struct{})
	type observation struct {
		q   query
		got string
	}
	const readers = 4
	seen := make([][]observation, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := queries[i%len(queries)]
				seen[r] = append(seen[r], observation{q, answer(live, q)})
				reads.Add(1)
			}
		}(r)
	}
	var ingestErr error
	for _, u := range ups {
		for target := reads.Load() + 200; reads.Load() < target; {
			runtime.Gosched()
		}
		if _, ingestErr = live.Ingest(u); ingestErr != nil {
			break
		}
	}
	for target := reads.Load() + 200; reads.Load() < target; {
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if ingestErr != nil {
		t.Fatal(ingestErr)
	}

	for _, obs := range seen {
		for _, ob := range obs {
			if !allowed[ob.q][ob.got] {
				t.Fatalf("%s %s %s: answer %s matches no window", ob.q.kind, ob.q.network, ob.q.m, ob.got)
			}
		}
	}
	// Once the updates have landed, no stale memo entry may answer.
	for _, q := range queries {
		if got := answer(live, q); got != final[q] {
			t.Fatalf("%s %s %s after the last update: %s, want %s", q.kind, q.network, q.m, got, final[q])
		}
	}
}
