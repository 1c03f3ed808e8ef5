package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpa"
	"mpa/internal/obs"
	"mpa/internal/serve"
	"mpa/internal/tenant"
)

// The package shares one warm framework: building it runs inference once,
// which is exactly the serve-mode lifecycle under test.
var (
	frameworkOnce sync.Once
	framework     *mpa.Framework
)

func testFramework(t testing.TB) *mpa.Framework {
	t.Helper()
	frameworkOnce.Do(func() {
		cfg := mpa.SmallConfig(5)
		cfg.Networks = 24
		f, err := mpa.NewSynthetic(cfg)
		if err != nil {
			panic(err)
		}
		framework = f
	})
	return framework
}

// testOrg names the org of the one-org test daemons, as `mpa serve`
// names its single org.
const testOrg = "default"

// oneOrgServer serves f as a registry of one org: the shape of every
// single-org daemon.
func oneOrgServer(t testing.TB, f *mpa.Framework, cfg serve.Config) *serve.Server {
	t.Helper()
	reg, err := tenant.New([]*tenant.Org{{Name: testOrg, F: f}})
	if err != nil {
		t.Fatal(err)
	}
	return serve.NewSharded(reg, cfg)
}

func testServer(t *testing.T) *serve.Server {
	t.Helper()
	return oneOrgServer(t, testFramework(t), serve.Config{})
}

// get performs one request against the server's handler and decodes the
// JSON body into out (skipped when out is nil).
func get(t *testing.T, s *serve.Server, path string, out any) *http.Response {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	res := rec.Result()
	if out != nil && res.StatusCode == http.StatusOK {
		if ct := res.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s: Content-Type = %q", path, ct)
		}
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("%s: decode: %v", path, err)
		}
	}
	return res
}

func wantStatus(t *testing.T, res *http.Response, path string, want int) {
	t.Helper()
	if res.StatusCode != want {
		body, _ := io.ReadAll(res.Body)
		t.Fatalf("%s: status = %d, want %d (body %s)", path, res.StatusCode, want, body)
	}
}

func TestHealthz(t *testing.T) {
	s := testServer(t)
	var body struct {
		Status      string `json:"status"`
		Networks    int    `json:"networks"`
		WindowStart string `json:"window_start"`
		Months      int    `json:"months"`
		Experiments int    `json:"experiments"`
	}
	res := get(t, s, "/healthz", &body)
	wantStatus(t, res, "/healthz", http.StatusOK)
	if body.Status != "ok" {
		t.Errorf("status = %q, want ok", body.Status)
	}
	if body.Networks != 24 {
		t.Errorf("networks = %d, want 24", body.Networks)
	}
	if body.WindowStart != "2014-01" || body.Months != 6 {
		t.Errorf("window = %s × %d months, want 2014-01 × 6", body.WindowStart, body.Months)
	}
	if body.Experiments != len(mpa.ExperimentIDs()) {
		t.Errorf("experiments = %d, want %d", body.Experiments, len(mpa.ExperimentIDs()))
	}
}

func TestRank(t *testing.T) {
	s := testServer(t)
	var body []struct {
		Rank        int     `json:"rank"`
		Metric      string  `json:"metric"`
		DisplayName string  `json:"display_name"`
		Category    string  `json:"category"`
		MI          float64 `json:"mi_bits"`
	}
	res := get(t, s, "/v1/rank", &body)
	wantStatus(t, res, "/v1/rank", http.StatusOK)
	if len(body) != 28 {
		t.Fatalf("ranked %d metrics, want the paper's 28", len(body))
	}
	for i, e := range body {
		if e.Rank != i+1 {
			t.Errorf("entry %d has rank %d", i, e.Rank)
		}
		if e.Metric == "" || e.DisplayName == "" || e.Category == "" {
			t.Errorf("entry %d incomplete: %+v", i, e)
		}
		if i > 0 && e.MI > body[i-1].MI {
			t.Errorf("ranking not descending at %d: %v > %v", i, e.MI, body[i-1].MI)
		}
	}
}

func TestCausal(t *testing.T) {
	s := testServer(t)
	var body struct {
		Treatment string `json:"treatment"`
		Points    []struct {
			Comparison string  `json:"comparison"`
			Pairs      int     `json:"pairs"`
			PValue     float64 `json:"p_value"`
		} `json:"points"`
	}
	res := get(t, s, "/v1/causal?practice=no_change_events", &body)
	wantStatus(t, res, "/v1/causal", http.StatusOK)
	if body.Treatment != "no_change_events" || len(body.Points) == 0 {
		t.Errorf("causal body = %+v", body)
	}

	res = get(t, s, "/v1/causal", nil)
	wantStatus(t, res, "/v1/causal (no practice)", http.StatusBadRequest)

	res = get(t, s, "/v1/causal?practice=no_such_metric", nil)
	wantStatus(t, res, "/v1/causal (unknown)", http.StatusNotFound)
}

func TestPredict(t *testing.T) {
	s := testServer(t)
	network := testFramework(t).Dataset().Networks()[0]
	var body struct {
		Network        string `json:"network"`
		Month          string `json:"month"`
		Predicted2Name string `json:"predicted_class2_name"`
		Predicted5Name string `json:"predicted_class5_name"`
	}
	path := "/v1/predict?network=" + network + "&month=2014-01"
	res := get(t, s, path, &body)
	wantStatus(t, res, path, http.StatusOK)
	if body.Network != network || body.Month != "2014-01" {
		t.Errorf("predict body = %+v", body)
	}
	if body.Predicted2Name == "" || body.Predicted5Name == "" {
		t.Errorf("missing class names: %+v", body)
	}

	// Default month is the last window month.
	res = get(t, s, "/v1/predict?network="+network, &body)
	wantStatus(t, res, "/v1/predict (default month)", http.StatusOK)
	if body.Month != "2014-06" {
		t.Errorf("default month = %s, want 2014-06", body.Month)
	}

}

// TestNetworkMonthQueryErrors pins the error answers of the two
// endpoints that take a network and a month: a malformed query is a 400,
// a well-formed one naming data the org lacks is a 404.
func TestNetworkMonthQueryErrors(t *testing.T) {
	s := testServer(t)
	network := testFramework(t).Dataset().Networks()[0]
	for _, endpoint := range []string{"/v1/predict", "/v1/network"} {
		for _, c := range []struct {
			name, query string
			want        int
		}{
			{"no network", "", http.StatusBadRequest},
			{"bad month", "?network=" + network + "&month=January", http.StatusBadRequest},
			{"month out of window", "?network=" + network + "&month=2019-12", http.StatusNotFound},
			{"unknown network", "?network=no-such-network", http.StatusNotFound},
		} {
			path := endpoint + c.query
			wantStatus(t, get(t, s, path, nil), endpoint+" ("+c.name+")", c.want)
		}
	}
}

func TestReport(t *testing.T) {
	s := testServer(t)
	var body struct {
		ID      string             `json:"id"`
		Title   string             `json:"title"`
		Text    string             `json:"text"`
		Numbers map[string]float64 `json:"numbers"`
		Digest  string             `json:"digest"`
	}
	res := get(t, s, "/v1/report/table2", &body)
	wantStatus(t, res, "/v1/report/table2", http.StatusOK)
	if body.ID != "table2" || body.Title == "" || body.Text == "" {
		t.Errorf("report body = %+v", body)
	}
	if len(body.Digest) != 64 {
		t.Errorf("digest = %q, want 64 hex chars", body.Digest)
	}

	res = get(t, s, "/v1/report/no_such_report", nil)
	wantStatus(t, res, "/v1/report (unknown)", http.StatusNotFound)
}

func TestManifest(t *testing.T) {
	s := testServer(t)
	var body struct {
		Schema string `json:"schema"`
	}
	res := get(t, s, "/v1/manifest", &body)
	wantStatus(t, res, "/v1/manifest", http.StatusOK)
	if body.Schema != "mpa.run-manifest/v1" {
		t.Errorf("schema = %q", body.Schema)
	}
}

// TestWarmQueriesSkipRecomputation is the acceptance test for serve
// mode's core promise: a second identical query is answered from the
// warm query cache without re-running any pipeline stage — no new
// inference, ranking, or training spans — while the cache-hit counters
// rise, observably in /metrics.
func TestWarmQueriesSkipRecomputation(t *testing.T) {
	s := testServer(t)
	f := testFramework(t)
	network := f.Dataset().Networks()[1]

	// Prime the caches.
	wantStatus(t, get(t, s, "/v1/rank", nil), "/v1/rank", http.StatusOK)
	predict := "/v1/predict?network=" + network + "&month=2014-02"
	wantStatus(t, get(t, s, predict, nil), predict, http.StatusOK)

	stages := []string{"inference", "mi_ranking", "train_model"}
	before := make(map[string]int, len(stages))
	for _, st := range stages {
		before[st] = f.StageCalls(st)
	}
	hitsBefore := obs.GetCounter("cache.query.mem_hits").Value()

	// Warm repeats: same queries again, several times.
	for i := 0; i < 3; i++ {
		wantStatus(t, get(t, s, "/v1/rank", nil), "/v1/rank", http.StatusOK)
		wantStatus(t, get(t, s, predict, nil), predict, http.StatusOK)
	}

	for _, st := range stages {
		if got := f.StageCalls(st); got != before[st] {
			t.Errorf("stage %q ran %d more times on warm queries", st, got-before[st])
		}
	}
	if hits := obs.GetCounter("cache.query.mem_hits").Value() - hitsBefore; hits <= 0 {
		t.Errorf("cache.query.mem_hits did not rise on warm queries")
	}

	// The same evidence must be scrapeable from the server's own /metrics.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	wantStatus(t, rec.Result(), "/metrics", http.StatusOK)
	scrape := rec.Body.String()
	if !strings.Contains(scrape, "mpa_cache_query_mem_hits_total") {
		t.Errorf("/metrics scrape missing mpa_cache_query_mem_hits_total")
	}
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "mpa_cache_query_mem_hits_total ") {
			var v float64
			if _, err := fmt.Sscanf(line, "mpa_cache_query_mem_hits_total %g", &v); err != nil || v <= 0 {
				t.Errorf("scraped %q, want a positive value", line)
			}
		}
	}
}

// TestConcurrentMixedQueries exercises every endpoint from concurrent
// goroutines; run with -race it pins the warm query layer's locking.
func TestConcurrentMixedQueries(t *testing.T) {
	s := testServer(t)
	networks := testFramework(t).Dataset().Networks()
	paths := []string{
		"/healthz",
		"/v1/rank",
		"/v1/causal?practice=no_change_events",
		"/v1/predict?network=" + networks[0] + "&month=2014-03",
		"/v1/predict?network=" + networks[2],
		"/v1/report/table2",
		"/v1/manifest",
		"/metrics",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				path := paths[(g+i)%len(paths)]
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("%s: status %d", path, rec.Code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFlightRecorderEndToEnd is the acceptance test for the flight
// recorder loop: issue a query slower than the slow threshold, see its
// X-Request-ID round-trip, find it in /debug/requests marked slow,
// fetch its retained span tree, and download a well-formed Chrome
// trace for it containing the query's stage spans.
func TestFlightRecorderEndToEnd(t *testing.T) {
	// A dedicated recorder keeps other tests' requests out, and a 1ns
	// threshold classifies every real request as slow.
	rec := obs.NewRecorder()
	s := oneOrgServer(t, testFramework(t), serve.Config{
		SlowThreshold: time.Nanosecond,
		Recorder:      rec,
	})

	// The slow query, with a client-chosen request ID.
	req := httptest.NewRequest(http.MethodGet, "/v1/causal?practice=no_change_events", nil)
	req.Header.Set("X-Request-ID", "e2e-slow-causal")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/v1/causal: status %d (%s)", w.Code, w.Body.Bytes())
	}
	if got := w.Header().Get("X-Request-ID"); got != "e2e-slow-causal" {
		t.Fatalf("X-Request-ID = %q, want the client-supplied id echoed back", got)
	}

	// Found in /debug/requests by its request ID, marked slow.
	var list struct {
		Count    int `json:"count"`
		Requests []struct {
			ID            string `json:"id"`
			Name          string `json:"name"`
			Slow          bool   `json:"slow"`
			TraceRetained bool   `json:"trace_retained"`
			Stages        []struct {
				Name string `json:"name"`
			} `json:"stages"`
		} `json:"requests"`
	}
	res := get(t, s, "/debug/requests", &list)
	wantStatus(t, res, "/debug/requests", http.StatusOK)
	idx := -1
	for i, r := range list.Requests {
		if r.ID == "e2e-slow-causal" {
			idx = i
		}
	}
	if idx < 0 {
		t.Fatalf("request e2e-slow-causal not in /debug/requests (%d entries)", len(list.Requests))
	}
	entry := list.Requests[idx]
	if entry.Name != "serve:causal" || !entry.Slow || !entry.TraceRetained {
		t.Errorf("entry = %+v, want serve:causal, slow, trace retained", entry)
	}
	stageNames := map[string]bool{}
	for _, st := range entry.Stages {
		stageNames[st.Name] = true
	}
	if !stageNames["causal_analysis"] || !stageNames["encode"] {
		t.Errorf("stage breakdown %v missing causal_analysis/encode", entry.Stages)
	}

	// The detail endpoint serves the retained span tree.
	var detail struct {
		Tree *struct {
			Name     string `json:"name"`
			Children []struct {
				Name       string `json:"name"`
				DurationNS int64  `json:"duration_ns"`
			} `json:"children"`
		} `json:"tree"`
	}
	res = get(t, s, "/debug/requests/e2e-slow-causal", &detail)
	wantStatus(t, res, "/debug/requests/{id}", http.StatusOK)
	if detail.Tree == nil || detail.Tree.Name != "serve:causal" {
		t.Fatalf("detail tree = %+v, want serve:causal root", detail.Tree)
	}
	childNames := map[string]bool{}
	for _, c := range detail.Tree.Children {
		childNames[c.Name] = true
		if c.DurationNS < 0 {
			t.Errorf("child %s has negative duration", c.Name)
		}
	}
	if !childNames["causal_analysis"] {
		t.Errorf("tree children %v missing causal_analysis stage span", childNames)
	}

	// The per-request Chrome trace: well-formed complete events including
	// the request root and its stage spans.
	tr := httptest.NewRecorder()
	s.Handler().ServeHTTP(tr, httptest.NewRequest(http.MethodGet, "/debug/requests/e2e-slow-causal/trace", nil))
	wantStatus(t, tr.Result(), "trace", http.StatusOK)
	if cd := tr.Header().Get("Content-Disposition"); !strings.Contains(cd, "trace-e2e-slow-causal.json") {
		t.Errorf("Content-Disposition = %q", cd)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   *int64 `json:"ts"`
			Dur  *int64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tr.Body.Bytes(), &tf); err != nil {
		t.Fatalf("per-request trace is not valid JSON: %v", err)
	}
	events := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		events[ev.Name] = true
		if ev.Ph != "X" || ev.Ts == nil || ev.Dur == nil {
			t.Errorf("event %+v not a well-formed complete event", ev)
		}
	}
	for _, want := range []string{"serve:causal", "causal_analysis", "encode"} {
		if !events[want] {
			t.Errorf("trace missing span %q (has %v)", want, events)
		}
	}

	// The slow-request Warn line landed in the process recorder's log
	// ring (serve logs through obs.Logger(), whose handler tees Warn and
	// above into obs.DefaultRecorder — the ring `mpa serve` exposes at
	// /debug/logs in its production configuration).
	found := false
	for _, l := range obs.DefaultRecorder().Logs() {
		if l.Msg == "serve: slow request" && l.Attrs["request_id"] == "e2e-slow-causal" {
			found = true
			if l.Level != "WARN" {
				t.Errorf("slow-request log level = %s, want WARN", l.Level)
			}
		}
	}
	if !found {
		t.Error("slow-request Warn record not captured in the default recorder's log ring")
	}

	// Unknown IDs are clean 404s.
	wantStatus(t, get(t, s, "/debug/requests/nope", nil), "unknown id", http.StatusNotFound)
	wantStatus(t, get(t, s, "/debug/requests/nope/trace", nil), "unknown trace", http.StatusNotFound)
}

// TestGracefulShutdownDrains starts a real listener, fires a request
// that is still in flight when the serve context is canceled, and
// asserts the request completes successfully and Serve returns nil
// (clean drain).
func TestGracefulShutdownDrains(t *testing.T) {
	s := oneOrgServer(t, testFramework(t), serve.Config{Addr: "127.0.0.1:0"})
	addr, err := s.Listen()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx) }()

	// An uncached causal analysis is the slowest query the server offers;
	// no_vlans is not analyzed by any other test, so this computes live.
	type result struct {
		status int
		err    error
	}
	done := make(chan result, 1)
	go func() {
		res, err := http.Get("http://" + addr.String() + "/v1/causal?practice=no_vlans")
		if err != nil {
			done <- result{err: err}
			return
		}
		defer res.Body.Close()
		_, _ = io.Copy(io.Discard, res.Body)
		done <- result{status: res.StatusCode}
	}()

	// Cancel as soon as the request is observably in flight. If it
	// finishes before we see it, shutdown-while-idle is still exercised.
	inflight := obs.GetGauge("serve.inflight")
	for i := 0; i < 1000 && inflight.Value() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()

	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", r.status)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after context cancel")
	}
}
