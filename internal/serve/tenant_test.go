package serve_test

// Multi-tenant serve: shard routing (path segment and X-MPA-Org
// header), cross-org fleet aggregates pinned byte-identical to the
// offline merge of per-org results, tenant isolation across ingest
// (exact warm-cache hit/miss deltas), the tenant-labeled flight
// recorder and /debug/slo, the single-org daemon as a registry of one,
// and the 413 regression for oversized ingest bodies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"mpa"
	"mpa/internal/obs"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// The routing/fleet tests share one 2-org sharded server; tests that
// mutate org state (ingest) build their own registries.
var (
	shardedOnce sync.Once
	shardedReg  *tenant.Registry
	shardedSrv  *serve.Server
	shardedRec  *obs.Recorder
)

func loadShardedRegistry(t *testing.T, spec string, baseSeed uint64) *tenant.Registry {
	t.Helper()
	specs, err := tenant.ParseOrgs(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := mpa.SmallConfig(baseSeed)
	reg, err := tenant.Load(specs, base)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func shardedServer(t *testing.T) (*serve.Server, *tenant.Registry) {
	t.Helper()
	shardedOnce.Do(func() {
		shardedReg = loadShardedRegistry(t, "acme=11:8:2,globex=12:6:2", 1)
		shardedRec = obs.NewRecorder()
		shardedSrv = serve.NewSharded(shardedReg, serve.Config{Recorder: shardedRec})
	})
	return shardedSrv, shardedReg
}

// raw performs one request and returns status and body bytes.
func raw(t *testing.T, s *serve.Server, method, path string, header map[string]string, body io.Reader) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(method, path, body)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, b
}

func TestShardRoutingByPath(t *testing.T) {
	s, reg := shardedServer(t)

	for i, org := range reg.Names() {
		var hz struct {
			Status   string `json:"status"`
			Org      string `json:"org"`
			Networks int    `json:"networks"`
		}
		path := "/v1/orgs/" + org + "/healthz"
		code, body := raw(t, s, http.MethodGet, path, nil, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", path, code, body)
		}
		if err := json.Unmarshal(body, &hz); err != nil {
			t.Fatal(err)
		}
		o := reg.Orgs()[i]
		if hz.Status != "ok" || hz.Org != org {
			t.Errorf("%s: got %+v, want ok for org %s", path, hz, org)
		}
		if want := len(o.F.Dataset().Networks()); hz.Networks != want {
			t.Errorf("%s: networks = %d, want %d", path, hz.Networks, want)
		}

		var rank []struct {
			Metric string `json:"metric"`
		}
		code, body = raw(t, s, http.MethodGet, "/v1/orgs/"+org+"/rank", nil, nil)
		if code != http.StatusOK {
			t.Fatalf("rank for %s: status %d", org, code)
		}
		if err := json.Unmarshal(body, &rank); err != nil {
			t.Fatal(err)
		}
		if len(rank) != 28 {
			t.Errorf("org %s ranked %d metrics, want 28", org, len(rank))
		}
	}
}

func TestShardRoutingByHeader(t *testing.T) {
	s, _ := shardedServer(t)

	// Header routing must serve the same bytes as the path form.
	codeH, bodyH := raw(t, s, http.MethodGet, "/v1/rank", map[string]string{serve.OrgHeader: "globex"}, nil)
	codeP, bodyP := raw(t, s, http.MethodGet, "/v1/orgs/globex/rank", nil, nil)
	if codeH != http.StatusOK || codeP != http.StatusOK {
		t.Fatalf("statuses %d (header) / %d (path), want 200/200", codeH, codeP)
	}
	if !bytes.Equal(bodyH, bodyP) {
		t.Error("header-routed /v1/rank differs from /v1/orgs/globex/rank")
	}

	// No org on a multi-org server: 400 naming the choices.
	code, body := raw(t, s, http.MethodGet, "/v1/rank", nil, nil)
	if code != http.StatusBadRequest {
		t.Errorf("bare /v1/rank: status %d, want 400", code)
	}
	if !bytes.Contains(body, []byte("acme")) || !bytes.Contains(body, []byte("globex")) {
		t.Errorf("400 body %s does not list the registered orgs", body)
	}

	// Unknown orgs are 404s on both routes.
	if code, _ := raw(t, s, http.MethodGet, "/v1/orgs/nope/rank", nil, nil); code != http.StatusNotFound {
		t.Errorf("/v1/orgs/nope/rank: status %d, want 404", code)
	}
	if code, _ := raw(t, s, http.MethodGet, "/v1/rank", map[string]string{serve.OrgHeader: "nope"}, nil); code != http.StatusNotFound {
		t.Errorf("X-MPA-Org: nope: status %d, want 404", code)
	}
}

// TestFleetRankByteIdentity is the tentpole's correctness bar: the
// fleet ranking must be byte-identical to merging the per-org /v1/rank
// responses offline.
func TestFleetRankByteIdentity(t *testing.T) {
	s, reg := shardedServer(t)

	var parts []tenant.RankPartial
	for _, org := range reg.Names() {
		var rank []struct {
			Metric string  `json:"metric"`
			MI     float64 `json:"mi_bits"`
		}
		code, body := raw(t, s, http.MethodGet, "/v1/orgs/"+org+"/rank", nil, nil)
		if code != http.StatusOK {
			t.Fatalf("rank for %s: %d", org, code)
		}
		if err := json.Unmarshal(body, &rank); err != nil {
			t.Fatal(err)
		}
		var hz struct {
			Cases int `json:"cases"`
		}
		code, body = raw(t, s, http.MethodGet, "/v1/orgs/"+org+"/healthz", nil, nil)
		if code != http.StatusOK {
			t.Fatalf("healthz for %s: %d", org, code)
		}
		if err := json.Unmarshal(body, &hz); err != nil {
			t.Fatal(err)
		}
		p := tenant.RankPartial{Org: org, Cases: hz.Cases}
		for _, e := range rank {
			p.Rank = append(p.Rank, mpa.PracticeDependence{Metric: e.Metric, MI: e.MI})
		}
		parts = append(parts, p)
	}

	merged, err := tenant.MergeRank(parts)
	if err != nil {
		t.Fatal(err)
	}
	// writeJSON's exact encoding: two-space indent, trailing newline.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	if err := enc.Encode(merged); err != nil {
		t.Fatal(err)
	}

	code, got := raw(t, s, http.MethodGet, "/v1/fleet/rank", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/fleet/rank: status %d (%s)", code, got)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("fleet rank differs from offline merge of per-org responses:\ngot  %s\nwant %s", got, want.Bytes())
	}
	if merged.Entries[0].Rank != 1 || len(merged.Entries) != 28 {
		t.Errorf("merged ranking malformed: %d entries", len(merged.Entries))
	}
}

func TestFleetHealthConsistency(t *testing.T) {
	s, reg := shardedServer(t)

	var fleet struct {
		Status string `json:"status"`
		Totals struct {
			Orgs     int `json:"orgs"`
			Networks int `json:"networks"`
			Cases    int `json:"cases"`
		} `json:"totals"`
		Orgs []struct {
			Org      string `json:"org"`
			Networks int    `json:"networks"`
		} `json:"orgs"`
	}
	code, body := raw(t, s, http.MethodGet, "/v1/fleet/health", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/fleet/health: %d", code)
	}
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatal(err)
	}
	if fleet.Status != "ok" || fleet.Totals.Orgs != reg.Len() {
		t.Errorf("fleet health %+v, want ok over %d orgs", fleet, reg.Len())
	}
	wantNetworks, wantCases := 0, 0
	for _, o := range reg.Orgs() {
		wantNetworks += len(o.F.Dataset().Networks())
		wantCases += o.F.Dataset().Len()
	}
	if fleet.Totals.Networks != wantNetworks || fleet.Totals.Cases != wantCases {
		t.Errorf("totals = %+v, want %d networks / %d cases", fleet.Totals, wantNetworks, wantCases)
	}
	if len(fleet.Orgs) != reg.Len() || fleet.Orgs[0].Org != reg.Names()[0] {
		t.Errorf("org rows %+v not in name order", fleet.Orgs)
	}

	// The bare healthz of a multi-org server answers for the fleet.
	var hz struct {
		Status string   `json:"status"`
		Orgs   []string `json:"orgs"`
	}
	code, body = raw(t, s, http.MethodGet, "/healthz", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d", code)
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || strings.Join(hz.Orgs, ",") != strings.Join(reg.Names(), ",") {
		t.Errorf("fleet healthz %+v, want ok with orgs %v", hz, reg.Names())
	}
}

// TestTenantRecorderAndSLO pins the tenancy threading through
// observability: the flight recorder carries the tenant column and
// /debug/slo breaks endpoints down per org.
func TestTenantRecorderAndSLO(t *testing.T) {
	s, _ := shardedServer(t)

	code, _ := raw(t, s, http.MethodGet, "/v1/orgs/acme/rank",
		map[string]string{"X-Request-ID": "tenant-rec-1"}, nil)
	if code != http.StatusOK {
		t.Fatalf("rank: %d", code)
	}
	sum, ok := shardedRec.Get("tenant-rec-1")
	if !ok {
		t.Fatal("request missing from recorder")
	}
	if sum.Tenant != "acme" {
		t.Errorf("recorder tenant = %q, want acme", sum.Tenant)
	}

	var slo struct {
		Endpoints map[string]json.RawMessage            `json:"endpoints"`
		Tenants   map[string]map[string]json.RawMessage `json:"tenants"`
	}
	code, body := raw(t, s, http.MethodGet, "/debug/slo", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/debug/slo: %d", code)
	}
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatal(err)
	}
	if _, ok := slo.Endpoints["rank"]; !ok {
		t.Error("/debug/slo lost the global rank endpoint row")
	}
	for _, org := range []string{"acme", "globex"} {
		if _, ok := slo.Tenants[org]; !ok {
			t.Errorf("/debug/slo has no tenant breakdown for %s", org)
		}
	}
	var acmeRank struct {
		Requests int64 `json:"requests"`
	}
	if err := json.Unmarshal(slo.Tenants["acme"]["rank"], &acmeRank); err != nil {
		t.Fatal(err)
	}
	if acmeRank.Requests < 1 {
		t.Error("acme's rank requests not counted in the tenant SLO row")
	}
}

// TestTenantIsolationOnIngest mirrors TestIngestCacheInvalidationPrecision
// across orgs: an ingest into org alpha must leave org beta's warm
// query-cache entries untouched — beta's re-queries are all hits, zero
// misses.
func TestTenantIsolationOnIngest(t *testing.T) {
	reg := loadShardedRegistry(t, "alpha=21:5:2,beta=22:4:2", 2)
	s := serve.NewSharded(reg, serve.Config{})
	alpha, beta := reg.Orgs()[0], reg.Orgs()[1]

	lastMonth := beta.F.Window()[len(beta.F.Window())-1].String()
	betaNets := beta.F.Dataset().Networks()
	warmBeta := func() {
		for _, n := range betaNets {
			path := "/v1/orgs/beta/network?network=" + n + "&month=" + lastMonth
			if code, body := raw(t, s, http.MethodGet, path, nil, nil); code != http.StatusOK {
				t.Fatalf("%s: %d (%s)", path, code, body)
			}
		}
		if code, _ := raw(t, s, http.MethodGet, "/v1/orgs/beta/rank", nil, nil); code != http.StatusOK {
			t.Fatal("beta rank failed")
		}
	}
	warmBeta()

	// Warm re-queries before the ingest: all hits, establishing the bar.
	pre := beta.F.QueryCacheStats()
	warmBeta()
	mid := beta.F.QueryCacheStats()
	wantHits := int64(len(betaNets) + 1)
	if d := mid.MemHits - pre.MemHits; d != wantHits {
		t.Fatalf("warm beta pass: %d hits, want %d", d, wantHits)
	}
	if d := mid.MemMisses - pre.MemMisses; d != 0 {
		t.Fatalf("warm beta pass: %d misses, want 0", d)
	}

	// Ingest one new month into alpha through the shard router.
	ups, err := mpa.NextMonths(alpha.Cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := json.Marshal(ups[0])
	if err != nil {
		t.Fatal(err)
	}
	code, body := raw(t, s, http.MethodPost, "/v1/orgs/alpha/ingest", nil, bytes.NewReader(ub))
	if code != http.StatusOK {
		t.Fatalf("alpha ingest: %d (%s)", code, body)
	}
	var res struct {
		NewMonth bool `json:"new_month"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.NewMonth {
		t.Fatal("alpha ingest did not extend the window")
	}

	// Beta's warm state must be exactly as warm as before: the same
	// all-hit/no-miss profile, pinning that alpha's invalidation never
	// crossed the shard boundary.
	pre = beta.F.QueryCacheStats()
	warmBeta()
	post := beta.F.QueryCacheStats()
	if d := post.MemHits - pre.MemHits; d != wantHits {
		t.Errorf("beta after alpha ingest: %d hits, want %d (cross-tenant invalidation leaked)", d, wantHits)
	}
	if d := post.MemMisses - pre.MemMisses; d != 0 {
		t.Errorf("beta after alpha ingest: %d misses, want 0 (cross-tenant invalidation leaked)", d)
	}

	// Sanity: alpha itself did invalidate — its window grew, so its
	// healthz reports one more month than beta's.
	var hz struct {
		Months int `json:"months"`
	}
	code, body = raw(t, s, http.MethodGet, "/v1/orgs/alpha/healthz", nil, nil)
	if code != http.StatusOK {
		t.Fatal("alpha healthz failed")
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Months != 3 {
		t.Errorf("alpha months = %d, want 3 after the extension", hz.Months)
	}
}

// TestConcurrentCrossTenantQueries drives both orgs concurrently while
// one ingests — the -race backstop for the shard router and per-tenant
// metrics.
func TestConcurrentCrossTenantQueries(t *testing.T) {
	reg := loadShardedRegistry(t, "left=31:4:2,right=32:4:2", 3)
	s := serve.NewSharded(reg, serve.Config{})
	left := reg.Orgs()[0]

	ups, err := mpa.NextMonths(left.Cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ub, err := json.Marshal(ups[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		org := []string{"left", "right"}[w%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				path := fmt.Sprintf("/v1/orgs/%s/network?network=net%03d", org, i%4)
				if code, body := raw(t, s, http.MethodGet, path, nil, nil); code != http.StatusOK {
					t.Errorf("%s: %d (%s)", path, code, body)
					return
				}
				if code, _ := raw(t, s, http.MethodGet, "/v1/orgs/"+org+"/rank", nil, nil); code != http.StatusOK {
					t.Errorf("%s rank failed", org)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code, body := raw(t, s, http.MethodPost, "/v1/orgs/left/ingest", nil, bytes.NewReader(ub)); code != http.StatusOK {
			t.Errorf("left ingest: %d (%s)", code, body)
		}
	}()
	wg.Wait()

	if code, _ := raw(t, s, http.MethodGet, "/v1/fleet/rank", nil, nil); code != http.StatusOK {
		t.Error("fleet rank after concurrent load failed")
	}
}

// TestIngestOversizedBodyIs413 pins the MaxBytesReader regression: an
// update body over the limit must be a 413, not a 400, while malformed
// small bodies stay 400s.
func TestIngestOversizedBodyIs413(t *testing.T) {
	s := oneOrgServer(t, testFramework(t), serve.Config{MaxIngestBytes: 1 << 10})

	big := `{"month":"2014-07","snapshots":[{"device":"d","text":"` +
		strings.Repeat("x", 4<<10) + `"}]}`
	code, body := raw(t, s, http.MethodPost, "/v1/ingest", nil, strings.NewReader(big))
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized ingest body: status %d, want 413 (body %s)", code, body)
	}

	code, _ = raw(t, s, http.MethodPost, "/v1/ingest", nil, strings.NewReader("{not json"))
	if code != http.StatusBadRequest {
		t.Errorf("malformed ingest body: status %d, want 400", code)
	}
}

// TestOneOrgDaemon pins the single-org daemon as a registry of one: an
// org-less query answers byte-for-byte as the org-scoped one, /healthz
// names the org, the fleet ranking orders the metrics as the org's own
// ranking does (MI ties broken by name), and every request lands in the per-tenant series and the
// flight recorder's tenant column.
func TestOneOrgDaemon(t *testing.T) {
	rec := obs.NewRecorder()
	s := oneOrgServer(t, testFramework(t), serve.Config{Recorder: rec})
	tenantRank := obs.GetLogHistogram("serve.tenant." + testOrg + ".latency_ns.rank")
	tenantOK := obs.GetCounter("serve.tenant." + testOrg + ".status.rank.2xx")
	rankBefore, okBefore := tenantRank.Snapshot().Count, tenantOK.Value()

	codeBare, bare := raw(t, s, http.MethodGet, "/v1/rank",
		map[string]string{"X-Request-ID": "one-org-rank"}, nil)
	codeOrg, scoped := raw(t, s, http.MethodGet, "/v1/orgs/"+testOrg+"/rank", nil, nil)
	if codeBare != http.StatusOK || codeOrg != http.StatusOK {
		t.Fatalf("statuses %d (org-less) / %d (org path), want 200/200", codeBare, codeOrg)
	}
	if !bytes.Equal(bare, scoped) {
		t.Error("org-less /v1/rank differs from /v1/orgs/" + testOrg + "/rank")
	}

	var hz struct {
		Status string `json:"status"`
		Org    string `json:"org"`
	}
	code, body := raw(t, s, http.MethodGet, "/healthz", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/healthz: %d (%s)", code, body)
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Org != testOrg {
		t.Errorf("/healthz = %+v, want ok naming org %s", hz, testOrg)
	}

	// Both rankings keep equal-MI practices in catalogue order, so a
	// one-org fleet ranks exactly like its org.
	var rank []struct {
		Metric string `json:"metric"`
	}
	if err := json.Unmarshal(bare, &rank); err != nil {
		t.Fatal(err)
	}
	var fleet struct {
		Entries []struct {
			Metric string `json:"metric"`
		} `json:"entries"`
	}
	code, body = raw(t, s, http.MethodGet, "/v1/fleet/rank", nil, nil)
	if code != http.StatusOK {
		t.Fatalf("/v1/fleet/rank: %d (%s)", code, body)
	}
	if err := json.Unmarshal(body, &fleet); err != nil {
		t.Fatal(err)
	}
	if len(fleet.Entries) != len(rank) {
		t.Fatalf("fleet ranks %d metrics, /v1/rank %d", len(fleet.Entries), len(rank))
	}
	for i := range rank {
		if fleet.Entries[i].Metric != rank[i].Metric {
			t.Errorf("rank %d: fleet has %s, /v1/rank has %s", i+1, fleet.Entries[i].Metric, rank[i].Metric)
		}
	}

	if d := tenantRank.Snapshot().Count - rankBefore; d != 2 {
		t.Errorf("per-tenant rank latency series grew by %d, want 2", d)
	}
	if d := tenantOK.Value() - okBefore; d != 2 {
		t.Errorf("per-tenant rank 2xx counter grew by %d, want 2", d)
	}
	sum, ok := rec.Get("one-org-rank")
	if !ok {
		t.Fatal("org-less request missing from the flight recorder")
	}
	if sum.Tenant != testOrg {
		t.Errorf("recorder tenant = %q, want %s", sum.Tenant, testOrg)
	}
}

// TestManifestIsPerOrg: an org's /v1/manifest describes that org and
// nothing process-wide. On a 2-org daemon recording into the process
// flight recorder, as `mpa serve` does, org a's manifest names no
// request ID and no serve.tenant.<b> series, carries no metrics,
// recorder or runtime section, and does not grow with traffic.
func TestManifestIsPerOrg(t *testing.T) {
	reg := loadShardedRegistry(t, "north=31:4:2,south=32:4:2", 3)
	s := serve.NewSharded(reg, serve.Config{})
	traffic := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			org := []string{"north", "south"}[i%2]
			id := fmt.Sprintf("per-org-%s-%d", org, i)
			if code, body := raw(t, s, http.MethodGet, "/v1/orgs/"+org+"/rank",
				map[string]string{"X-Request-ID": id}, nil); code != http.StatusOK {
				t.Fatalf("%s rank: %d (%s)", org, code, body)
			}
		}
	}
	// manifest checks north's manifest and returns its size: its length
	// less its two clock readings, whose widths vary by a digit or so
	// between any two calls.
	manifest := func() int {
		t.Helper()
		code, body := raw(t, s, http.MethodGet, "/v1/orgs/north/manifest", nil, nil)
		if code != http.StatusOK {
			t.Fatalf("manifest: %d (%s)", code, body)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(body, &top); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"metrics", "recorder", "runtime"} {
			if _, ok := top[key]; ok {
				t.Errorf("org manifest carries the process section %q", key)
			}
		}
		if bytes.Contains(body, []byte("per-org-")) {
			t.Error("org manifest names request IDs")
		}
		if bytes.Contains(body, []byte("serve.tenant.south")) {
			t.Error("north's manifest exposes south's serve.tenant.south series")
		}
		var cfg struct {
			Config struct {
				Seed uint64 `json:"seed"`
			} `json:"config"`
		}
		if err := json.Unmarshal(body, &cfg); err != nil || cfg.Config.Seed != 31 {
			t.Errorf("manifest config seed = %d (%v), want north's 31", cfg.Config.Seed, err)
		}
		return len(body) - len(top["created_at"]) - len(top["total_wall_ns"])
	}

	traffic(0, 10)
	after10 := manifest()
	traffic(10, 1010)
	if after1010 := manifest(); after1010 != after10 {
		t.Errorf("manifest size %d after 1,010 requests, %d after 10: it grows with traffic", after1010, after10)
	}
}
