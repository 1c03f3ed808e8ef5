package serve_test

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mpa/internal/obs"
)

// sloBody mirrors the GET /debug/slo response shape.
type sloBody struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	StreamsOpen   int64   `json:"streams_open"`
	Endpoints     map[string]struct {
		Requests      int64            `json:"requests"`
		Errors        int64            `json:"errors"`
		ErrorRate     float64          `json:"error_rate"`
		StatusClasses map[string]int64 `json:"status_classes"`
		LatencyMS     *struct {
			P50  float64 `json:"p50"`
			P90  float64 `json:"p90"`
			P99  float64 `json:"p99"`
			P999 float64 `json:"p999"`
			Min  float64 `json:"min"`
			Max  float64 `json:"max"`
			Mean float64 `json:"mean"`
		} `json:"latency_ms"`
	} `json:"endpoints"`
}

// TestSLOSummaryEndToEnd is the acceptance test for the per-endpoint
// latency layer: issue successful and failing queries, then read the
// percentile summary and status-class tallies back from /debug/slo and
// the per-endpoint series from /metrics.
func TestSLOSummaryEndToEnd(t *testing.T) {
	s := testServer(t)

	// Baseline: the registry is process-global, so other tests' requests
	// may already be tallied. Deltas are what this test owns.
	var before sloBody
	wantStatus(t, get(t, s, "/debug/slo", &before), "/debug/slo", http.StatusOK)
	rankBefore := before.Endpoints["rank"].Requests
	causalErrBefore := before.Endpoints["causal"].Errors

	for i := 0; i < 3; i++ {
		wantStatus(t, get(t, s, "/v1/rank", nil), "/v1/rank", http.StatusOK)
	}
	// A 404: unknown practice must land in causal's 4xx class.
	wantStatus(t, get(t, s, "/v1/causal?practice=no_such_metric", nil),
		"/v1/causal (unknown)", http.StatusNotFound)

	var body sloBody
	wantStatus(t, get(t, s, "/debug/slo", &body), "/debug/slo", http.StatusOK)

	for _, name := range []string{"rank", "causal", "predict", "network", "report", "manifest", "ingest"} {
		if _, ok := body.Endpoints[name]; !ok {
			t.Errorf("/debug/slo missing endpoint %q", name)
		}
	}

	rank := body.Endpoints["rank"]
	if got := rank.Requests - rankBefore; got != 3 {
		t.Errorf("rank requests delta = %d, want 3", got)
	}
	if rank.LatencyMS == nil {
		t.Fatal("rank latency summary absent after requests")
	}
	l := rank.LatencyMS
	if l.Min <= 0 || l.Max < l.Min || l.P50 < l.Min || l.P999 > l.Max*1.0001 {
		t.Errorf("rank latency summary not ordered: %+v", l)
	}
	if l.P50 > l.P90+1e-9 || l.P90 > l.P99+1e-9 || l.P99 > l.P999+1e-9 {
		t.Errorf("rank percentiles not monotone: %+v", l)
	}

	causal := body.Endpoints["causal"]
	if got := causal.Errors - causalErrBefore; got != 1 {
		t.Errorf("causal errors delta = %d, want 1 (the 404)", got)
	}
	if causal.StatusClasses["4xx"] < 1 {
		t.Errorf("causal 4xx class = %d, want ≥ 1", causal.StatusClasses["4xx"])
	}
	if causal.Requests > 0 && causal.ErrorRate <= 0 {
		t.Errorf("causal error rate = %v, want > 0 after a 404", causal.ErrorRate)
	}

	// The same series must be scrapeable from /metrics.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	wantStatus(t, rec.Result(), "/metrics", http.StatusOK)
	scrape := rec.Body.String()
	for _, series := range []string{
		"mpa_serve_latency_ns_rank_bucket{le=",
		"mpa_serve_latency_ns_rank_count ",
		"mpa_serve_latency_ns_causal_sum ",
		"mpa_serve_status_rank_2xx_total ",
		"mpa_serve_status_causal_4xx_total ",
		"mpa_serve_streams_open ",
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("/metrics scrape missing %q", series)
		}
	}
}

// TestStreamsExcludedFromLatency pins the SSE exclusion: an open
// /v1/stream connection raises serve.streams_open but never appears in
// any request-latency histogram, no matter how long it stays attached.
func TestStreamsExcludedFromLatency(t *testing.T) {
	s := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	latencyCount := func() int64 {
		var total int64
		for _, name := range []string{"rank", "causal", "predict", "network", "report", "manifest", "ingest"} {
			total += obs.GetLogHistogram("serve.latency_ns." + name).Snapshot().Count
			total += obs.GetLogHistogram("serve.tenant." + testOrg + ".latency_ns." + name).Snapshot().Count
		}
		return total
	}
	gauge := obs.GetGauge("serve.streams_open")
	openBefore := gauge.Value()
	countBefore := latencyCount()

	res, err := http.Get(srv.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() { // the opening comment line means the handler is live
		if strings.HasPrefix(sc.Text(), ":") {
			break
		}
	}
	if got := gauge.Value() - openBefore; got != 1 {
		t.Errorf("streams_open delta with live stream = %v, want 1", got)
	}

	res.Body.Close() // client disconnect must decrement the gauge
	deadline := time.Now().Add(5 * time.Second)
	for gauge.Value() != openBefore && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := gauge.Value(); got != openBefore {
		t.Errorf("streams_open = %v after disconnect, want %v", got, openBefore)
	}
	if got := latencyCount(); got != countBefore {
		t.Errorf("stream connection leaked into latency histograms (%d → %d observations)",
			countBefore, got)
	}
}
