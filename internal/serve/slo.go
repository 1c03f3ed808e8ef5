// Per-endpoint latency-SLO instrumentation: every query-wrapped /v1
// endpoint records into a log-spaced latency histogram (~5% relative
// quantile error, see obs.LogHistogram) and per-status-class counters,
// globally and per tenant. GET /debug/slo summarizes the same state as
// JSON (p50/p90/p99/p99.9, min/max/mean, error rates) so the SLO gate, a
// dashboard, or a human can read the daemon's latency posture without a
// Prometheus stack; /metrics carries the full series for one.
package serve

import (
	"net/http"
	"time"

	"mpa/internal/obs"
)

// statusClasses are the response-status families tallied per endpoint,
// as "serve.status.<endpoint>.<class>" counters.
var statusClasses = [4]string{"2xx", "3xx", "4xx", "5xx"}

// endpointMetrics is one endpoint's latency-SLO instrumentation. The
// prefix scopes the series: "serve." for the global (fleet-wide)
// aggregates, "serve.tenant.<org>." for one tenant's view of the same
// endpoint.
type endpointMetrics struct {
	name    string
	latency *obs.LogHistogram // <prefix>latency_ns.<name>: nanoseconds
	status  [len(statusClasses)]*obs.Counter
}

func newEndpointMetrics(prefix, name string) *endpointMetrics {
	m := &endpointMetrics{
		name:    name,
		latency: obs.GetLogHistogram(prefix + "latency_ns." + name),
	}
	for i, class := range statusClasses {
		m.status[i] = obs.GetCounter(prefix + "status." + name + "." + class)
	}
	return m
}

// observe records one completed request.
func (m *endpointMetrics) observe(dur time.Duration, status int) {
	m.latency.Observe(float64(dur.Nanoseconds()))
	idx := status/100 - 2
	if idx < 0 {
		idx = 0
	}
	if idx >= len(statusClasses) {
		idx = len(statusClasses) - 1
	}
	m.status[idx].Add(1)
}

// endpointSLO is one endpoint's row in the /debug/slo summary.
type endpointSLO struct {
	Requests      int64            `json:"requests"`
	Errors        int64            `json:"errors"`
	ErrorRate     float64          `json:"error_rate"`
	StatusClasses map[string]int64 `json:"status_classes"`
	// LatencyMS is absent until the endpoint has served a request.
	LatencyMS *latencySummaryMS `json:"latency_ms,omitempty"`
}

// latencySummaryMS summarizes one latency distribution in milliseconds.
// Percentiles come from the endpoint's log histogram and inherit its
// ~5% relative-error bound; min/max/mean are exact.
type latencySummaryMS struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// latencyMS converts a nanosecond log-histogram snapshot into the
// millisecond summary, nil while empty.
func latencyMS(snap obs.LogHistogramSnapshot) *latencySummaryMS {
	if snap.Count == 0 {
		return nil
	}
	const ns = 1e6
	return &latencySummaryMS{
		P50:  snap.Quantile(0.50) / ns,
		P90:  snap.Quantile(0.90) / ns,
		P99:  snap.Quantile(0.99) / ns,
		P999: snap.Quantile(0.999) / ns,
		Min:  snap.Min / ns,
		Max:  snap.Max / ns,
		Mean: snap.Mean() / ns,
	}
}

// sloResponse is the GET /debug/slo body. Endpoints carries the global
// (fleet-wide) aggregates; Tenants breaks the same endpoints down per
// organization.
type sloResponse struct {
	UptimeSeconds float64                           `json:"uptime_seconds"`
	StreamsOpen   int64                             `json:"streams_open"`
	Endpoints     map[string]endpointSLO            `json:"endpoints"`
	Tenants       map[string]map[string]endpointSLO `json:"tenants"`
}

// sloRow snapshots one endpoint's instrumentation into a summary row.
func sloRow(m *endpointMetrics) endpointSLO {
	snap := m.latency.Snapshot()
	row := endpointSLO{
		Requests:      snap.Count,
		StatusClasses: make(map[string]int64, len(statusClasses)),
		LatencyMS:     latencyMS(snap),
	}
	for i, class := range statusClasses {
		v := m.status[i].Value()
		row.StatusClasses[class] = v
		if class == "4xx" || class == "5xx" {
			row.Errors += v
		}
	}
	if row.Requests > 0 {
		row.ErrorRate = float64(row.Errors) / float64(row.Requests)
	}
	return row
}

// handleSLO summarizes every instrumented endpoint, globally and per
// tenant. Long-lived SSE streams are deliberately not an endpoint row
// (they are connections, not requests); their population shows up as
// streams_open.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	out := sloResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		StreamsOpen:   int64(s.streamsOpen.Value()),
		Endpoints:     make(map[string]endpointSLO, len(s.ep)),
		Tenants:       make(map[string]map[string]endpointSLO, len(s.shards)),
	}
	for name, m := range s.ep {
		out.Endpoints[name] = sloRow(m)
	}
	for name, sh := range s.shards {
		rows := make(map[string]endpointSLO, len(sh.ep))
		for ep, m := range sh.ep {
			rows[ep] = sloRow(m)
		}
		out.Tenants[name] = rows
	}
	writeJSON(w, http.StatusOK, out)
}
