// Package serve implements the long-lived `mpa serve` daemon: the
// paper's monthly monitoring loop turned into a resident process. The
// organization's data is loaded and inferred exactly once; the warm
// Framework — its analysis, dataset, and query memos — stays in memory,
// and analysis queries are answered over HTTP. Repeated queries never
// re-run inference or any other pipeline stage: results are served from
// the memo of the data snapshot they read (hits and misses are the
// "cache.query.*" counters in /metrics), which is the daemon's
// heavy-traffic path. The rank, causal, predict, network and report
// endpoints store each answer's encoded body in the same memo, tagged
// with a strong ETag, so a warm read writes stored bytes and a client
// revalidating with If-None-Match gets a 304 (stored.go).
//
// The daemon runs one warm Framework per organization and always fronts
// an org registry (internal/tenant): a single-org daemon is a registry of
// one, whose org also answers requests that name none. Every /v1 query
// routes to the tenant's shard, resolved from the /v1/orgs/{org}/...
// path segment or the X-MPA-Org header. Shards share no mutable state —
// each org owns its engines, caches, and snapshot memos — so
// cross-tenant isolation is structural, not locked. Fleet-wide aggregates
// (/v1/fleet/*) fan per-shard partial results out over internal/par and
// merge them map-reduce style (tenant.MergeRank / tenant.MergeHealth);
// merging the per-org responses offline reproduces the fleet response
// byte-for-byte.
//
// Endpoints (each /v1 query also mounts at /v1/orgs/{org}/...):
//
//	GET /healthz                       liveness + loaded-state summary (fleet summary for several orgs)
//	GET /v1/rank                       practice↔health MI ranking
//	GET /v1/causal?practice=NAME       matched-design causal analysis
//	GET /v1/predict?network=N&month=M  health prediction for one network-month
//	GET /v1/network?network=N&month=M  per-network-month health summary (stored in the network's memo)
//	GET /v1/report/{name}              one of the 24 experiment reports, digest-stamped
//	GET /v1/manifest                   the org's run manifest: build, config, stages, report digests
//	POST /v1/ingest                    apply one month of new snapshots/tickets in place
//	GET /v1/stream                     SSE feed of per-network deltas + refreshed rankings
//	GET /v1/fleet/rank                 cross-org merged practice ranking
//	GET /v1/fleet/health               cross-org loaded-state rollup
//	GET /debug/slo                     per-endpoint latency percentiles + error rates (slo.go)
//	GET /metrics, /debug/pprof, /debug/vars  (the shared obs debug set)
//	GET /debug/requests[/{id}[/trace]], /debug/logs  (the flight recorder)
//
// Every /v1 query runs under a concurrency limit and a request-scoped
// obs span; totals, per-endpoint counts, errors, panics, in-flight
// depth, and latency histograms are registered under "serve.*" — one
// log-spaced serve.latency_ns.<endpoint> histogram (p50…p99.9 at ~5%
// relative error) and serve.status.<endpoint>.<class> counters per
// endpoint, summarized at /debug/slo. CI judges client-side latency
// instead: scripts/paired.sh drives this daemon and its base revision's
// with cmd/mpa-loadgen and cmd/mpa-benchdiff compares the two.
// Each request is also recorded under its tenant's own
// serve.tenant.<org>.latency_ns.<endpoint> / status series; the global
// series stay fleet-wide aggregates. Each request gets an ID — honoring
// an incoming X-Request-ID or W3C traceparent, echoed back as
// X-Request-ID — and is recorded in the flight recorder (obs.Recorder)
// on completion with its tenant column: the recent ring is served at
// /debug/requests, and full span trees of the slowest and errored
// requests can be fetched as per-request Chrome traces. Requests slower
// than Config.SlowThreshold are logged at Warn with a per-stage
// breakdown. Shutdown is graceful:
// canceling the Serve context stops accepting connections and drains
// in-flight requests before returning.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/obs"
	"mpa/internal/par"
	"mpa/internal/tenant"
)

// drainTimeout bounds graceful shutdown: how long Serve waits for
// in-flight requests after its context is canceled.
const drainTimeout = 30 * time.Second

// OrgHeader is the request header naming the tenant when the path does
// not (/v1/rank with X-MPA-Org: acme ≡ /v1/orgs/acme/rank).
const OrgHeader = "X-MPA-Org"

// Config parameterizes the server.
type Config struct {
	// Addr is the listen address, e.g. "localhost:8080"; port 0 picks a
	// free port (see Server.Listen).
	Addr string
	// MaxInFlight bounds concurrently executing /v1 queries; excess
	// requests queue. Zero means 2×GOMAXPROCS.
	MaxInFlight int
	// SlowThreshold classifies queries at least this slow as slow: they
	// are logged at Warn with a per-stage breakdown and pinned in the
	// flight recorder (the `mpa serve -slow-ms` flag). Zero disables
	// slow classification.
	SlowThreshold time.Duration
	// MaxIngestBytes bounds a POST /v1/ingest body; an oversized body is
	// a 413. Zero means 256 MiB.
	MaxIngestBytes int64
	// Recorder receives every completed query. Nil uses the process-wide
	// obs.DefaultRecorder.
	Recorder *obs.Recorder
}

// shard is one organization's slice of the server: its warm framework
// plus the tenant-scoped SLO instrumentation. The shared request
// plumbing (semaphore, global counters, recorder) lives on the Server;
// everything query-answering is per-shard.
type shard struct {
	name string
	f    *mpa.Framework
	// ep holds the per-tenant endpoint metrics
	// (serve.tenant.<org>.latency_ns.<endpoint> and status counters).
	ep map[string]*endpointMetrics
}

// queryEndpoints are the query-wrapped endpoint names, fixed at build
// time so every shard registers the same per-tenant series.
var queryEndpoints = []string{
	"rank", "causal", "predict", "network", "report", "manifest", "ingest",
}

func newShard(name string, f *mpa.Framework) *shard {
	sh := &shard{name: name, f: f, ep: make(map[string]*endpointMetrics, len(queryEndpoints))}
	for _, ep := range queryEndpoints {
		sh.ep[ep] = newEndpointMetrics("serve.tenant."+name+".", ep)
	}
	return sh
}

// Server answers analysis queries over one or more warm Frameworks.
type Server struct {
	cfg   Config
	sem   chan struct{}
	start time.Time
	mux   *http.ServeMux
	ln    net.Listener

	// def is the shard a request with no org resolves to: the only
	// shard of a single-org server, nil when several orgs are registered
	// and the request must name one.
	def    *shard
	shards map[string]*shard
	reg    *tenant.Registry

	// closing is closed when graceful shutdown begins, so long-lived
	// stream handlers return and their connections can drain — an SSE
	// connection never goes idle on its own, and Shutdown waits for
	// active connections.
	closing   chan struct{}
	closeOnce sync.Once

	rec *obs.Recorder

	requests *obs.Counter
	errors   *obs.Counter
	panics   *obs.Counter
	inflight *obs.Gauge
	// queueCancelled counts requests whose client canceled while they
	// waited for a slot.
	queueCancelled *obs.Counter

	// ep holds the global per-endpoint latency-SLO instrumentation
	// (log-spaced latency histograms + status-class counters; see
	// slo.go) keyed by endpoint name — fleet-wide aggregates when
	// sharded; streamsOpen counts live SSE subscribers, which are
	// deliberately excluded from every latency series.
	ep          map[string]*endpointMetrics
	streamsOpen *obs.Gauge
}

func newServer(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxIngestBytes <= 0 {
		cfg.MaxIngestBytes = maxIngestBytes
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.DefaultRecorder()
	}
	return &Server{
		cfg:            cfg,
		sem:            make(chan struct{}, cfg.MaxInFlight),
		start:          time.Now(),
		mux:            http.NewServeMux(),
		shards:         map[string]*shard{},
		closing:        make(chan struct{}),
		rec:            cfg.Recorder,
		requests:       obs.GetCounter("serve.requests"),
		errors:         obs.GetCounter("serve.errors"),
		panics:         obs.GetCounter("serve.panics"),
		inflight:       obs.GetGauge("serve.inflight"),
		queueCancelled: obs.GetCounter("serve.queue_cancelled"),
		ep:             map[string]*endpointMetrics{},
		streamsOpen:    obs.GetGauge("serve.streams_open"),
	}
}

// NewSharded builds the server over an org registry of already-built
// (and therefore already-inferred) frameworks: one shard per org, the
// /v1/orgs/{org} router in front, and the /v1/fleet/* aggregate
// endpoints. With exactly one org registered, requests that name no org
// resolve to it; with several, they must pick one (path segment or
// X-MPA-Org header).
func NewSharded(reg *tenant.Registry, cfg Config) *Server {
	s := newServer(cfg)
	s.reg = reg
	for _, o := range reg.Orgs() {
		s.shards[o.Name] = newShard(o.Name, o.F)
	}
	if reg.Len() == 1 {
		s.def = s.shards[reg.Names()[0]]
	}
	s.routes()
	return s
}

// routes mounts the full route set. Every query endpoint is reachable
// both bare (tenant from header or default) and under /v1/orgs/{org}.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/orgs/{org}/healthz", s.handleHealthz)
	s.route("GET", "rank", "rank", s.handleRank)
	s.route("GET", "causal", "causal", s.handleCausal)
	s.route("GET", "predict", "predict", s.handlePredict)
	s.route("GET", "network", "network", s.handleNetwork)
	s.route("GET", "report/{name}", "report", s.handleReport)
	s.route("GET", "manifest", "manifest", s.handleManifest)
	s.route("POST", "ingest", "ingest", s.handleIngest)
	// The stream endpoint is mounted outside the query wrapper: SSE
	// connections are long-lived by design and must not occupy slots in
	// the bounded query semaphore (a handful of subscribers would starve
	// every analysis query).
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/orgs/{org}/stream", s.handleStream)
	s.mux.Handle("GET /v1/fleet/rank", s.fleet("fleet_rank", s.handleFleetRank))
	s.mux.Handle("GET /v1/fleet/health", s.fleet("fleet_health", s.handleFleetHealth))
	s.mux.HandleFunc("GET /debug/slo", s.handleSLO)
	obs.RegisterDebug(s.mux)
	obs.RegisterRecorderDebug(s.mux, s.rec)
}

// route mounts one query endpoint under both its bare and org-scoped
// paths — the same wrapped handler, so the two forms share counters.
func (s *Server) route(method, path, name string, h func(*shard, http.ResponseWriter, *http.Request)) {
	qh := s.query(name, h)
	s.mux.Handle(method+" /v1/"+path, qh)
	s.mux.Handle(method+" /v1/orgs/{org}/"+path, qh)
}

// Handler returns the server's full route set, for embedding or tests.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds the configured address and returns the bound address
// (resolving port 0). Serve calls it implicitly when needed.
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve accepts connections until ctx is canceled, then shuts down
// gracefully: the listener closes, in-flight requests drain (bounded by
// drainTimeout), and only then does Serve return. A clean drain returns
// nil. Every exit path closes the server's closing channel, so attached
// SSE streams learn the server is gone even when hs.Serve fails before
// the context is canceled (e.g. the listener is yanked).
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
	}
	hs := &http.Server{Handler: s.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(s.ln) }()
	select {
	case err := <-errc:
		s.closeOnce.Do(func() { close(s.closing) })
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	obs.Logger().Info("serve: draining in-flight requests", "timeout", drainTimeout)
	s.closeOnce.Do(func() { close(s.closing) })
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	<-errc // hs.Serve has returned http.ErrServerClosed
	return nil
}

// statusWriter captures the response status for the error counter and
// whether anything was written, so the panic path knows if a 500 body
// can still be sent.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// resolveShard picks the request's tenant: the {org} path segment, then
// the X-MPA-Org header, then the default shard. An unknown org is a
// 404; naming no org on a multi-org server is a 400 listing the
// registered names. On failure the error response is already written.
func (s *Server) resolveShard(w http.ResponseWriter, r *http.Request) (*shard, bool) {
	name := r.PathValue("org")
	if name == "" {
		name = r.Header.Get(OrgHeader)
	}
	if name == "" {
		if s.def != nil {
			return s.def, true
		}
		writeError(w, http.StatusBadRequest,
			"multi-tenant server: name an org via /v1/orgs/{org}/... or the %s header (orgs: %s)",
			OrgHeader, strings.Join(s.reg.Names(), ", "))
		return nil, false
	}
	sh, ok := s.shards[name]
	if !ok {
		writeError(w, http.StatusNotFound, "unknown org %q", name)
		return nil, false
	}
	return sh, true
}

// instrumented is the inner handler shape under instrument: it runs the
// request and reports which tenant it resolved to ("" for none) plus
// that tenant's per-endpoint metrics row (nil for none), both observed
// by the deferred accounting.
type instrumented func(w http.ResponseWriter, r *http.Request) (tenantName string, tem *endpointMetrics)

// instrument wraps a handler with the shared request plumbing: the
// concurrency limit, total/per-endpoint/error/panic counters, the
// in-flight gauge, the latency histograms (global and, when the request
// resolved to a tenant, that tenant's), a request-scoped span
// (passed down via the request context for handlers to hang stage spans
// on), the request ID (honoring X-Request-ID / traceparent, echoed back
// as X-Request-ID), and the tenant-labeled flight-recorder entry. The
// span starts before the request takes a slot, so queue time counts in
// the latency histograms, /debug/slo and the recorder; a request that
// finds every slot taken records its wait as a "queue_wait" stage. A
// request whose client cancels while it waits never runs its handler:
// it answers and is recorded with status 499 and is counted in
// serve.queue_cancelled. The request tree samples no allocation totals
// (obs.NewRequestRoot). A handler panic is recovered into a 500 JSON
// error — latency, counters, and the recorder entry are still recorded.
func (s *Server) instrument(name string, h instrumented) http.Handler {
	perEndpoint := obs.GetCounter("serve.requests." + name)
	em := newEndpointMetrics("serve.", name)
	s.ep[name] = em
	root := "serve:" + name
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := obs.NewRequestRoot(root)
		// Header keys spelled in canonical form are looked up without
		// building the canonical key.
		id := obs.RequestIDFrom(r.Header.Get("Traceparent"), r.Header.Get("X-Request-Id"))
		w.Header()["X-Request-Id"] = []string{id}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var tenantName string
		var tem *endpointMetrics
		defer func() {
			panicked := recover()
			if panicked != nil {
				s.panics.Add(1)
				obs.Logger().Error("serve: panic in handler",
					"endpoint", name, "request_id", id, "panic", panicked)
				if !sw.wrote {
					writeError(sw, http.StatusInternalServerError,
						"internal error (request %s)", id)
				} else {
					// Headers are gone; the client sees a broken body. Record
					// the failure honestly anyway.
					sw.status = http.StatusInternalServerError
				}
			}
			sp.End()
			dur := sp.Duration()
			slow := s.cfg.SlowThreshold > 0 && dur >= s.cfg.SlowThreshold
			s.requests.Add(1)
			perEndpoint.Add(1)
			if sw.status >= 400 {
				s.errors.Add(1)
			}
			em.observe(dur, sw.status)
			if tem != nil {
				tem.observe(dur, sw.status)
			}
			sum := s.rec.Record(sp, obs.RequestMeta{
				ID:     id,
				Status: sw.status,
				Err:    panicked != nil || sw.status >= 400,
				Slow:   slow,
				Tenant: tenantName,
			})
			if log := obs.Logger(); slow {
				log.Warn("serve: slow request",
					"endpoint", name, "request_id", id, "tenant", tenantName,
					"status", sw.status, "elapsed", dur, "stages", stageString(sum.Stages))
			} else if log.Enabled(r.Context(), slog.LevelDebug) {
				log.Debug("serve: request",
					"endpoint", name, "request_id", id, "tenant", tenantName,
					"status", sw.status, "elapsed", dur)
			}
		}()
		if !s.acquire(r, sp) {
			s.queueCancelled.Add(1)
			writeError(sw, statusClientClosedRequest, "request canceled while queued")
			return
		}
		s.inflight.Add(1)
		defer func() {
			<-s.sem
			s.inflight.Add(-1)
		}()
		tenantName, tem = h(sw, r.WithContext(obs.ContextWithSpan(r.Context(), sp)))
	})
}

// statusClientClosedRequest answers a request whose client canceled
// before it got a slot: the 499 of common proxy logs, counted as a 4xx.
const statusClientClosedRequest = 499

// acquire takes a query slot for r, waiting under a "queue_wait" stage
// of sp when every slot is taken. It reports false, holding no slot,
// when r's client cancels while it waits.
func (s *Server) acquire(r *http.Request, sp *obs.Span) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	queued := sp.Start("queue_wait")
	defer queued.End()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-r.Context().Done():
		return false
	}
}

// query wraps a tenant-scoped /v1 handler: shard resolution first (a
// failed resolution is still a fully accounted request), then the
// handler against the resolved shard's framework.
func (s *Server) query(name string, h func(*shard, http.ResponseWriter, *http.Request)) http.Handler {
	return s.instrument(name, func(w http.ResponseWriter, r *http.Request) (string, *endpointMetrics) {
		sh, ok := s.resolveShard(w, r)
		if !ok {
			return "", nil
		}
		h(sh, w, r)
		return sh.name, sh.ep[name]
	})
}

// fleet wraps a cross-org aggregate handler: same plumbing, no shard
// resolution; entries are recorded under the reserved "fleet" tenant.
func (s *Server) fleet(name string, h http.HandlerFunc) http.Handler {
	return s.instrument(name, func(w http.ResponseWriter, r *http.Request) (string, *endpointMetrics) {
		h(w, r)
		return "fleet", nil
	})
}

// stageString renders a recorder stage breakdown for the slow-request
// log line, e.g. "causal_analysis=41ms encode=210µs".
func stageString(stages []obs.StageStat) string {
	if len(stages) == 0 {
		return "-"
	}
	parts := make([]string, len(stages))
	for i, st := range stages {
		parts[i] = fmt.Sprintf("%s=%s", st.Name, st.Duration)
	}
	return strings.Join(parts, " ")
}

// jsonContentType is the Content-Type of every JSON body, shared by
// every response that sets it and never modified.
var jsonContentType = []string{"application/json; charset=utf-8"}

// encodeJSON renders one response body: v marshaled, then indented by
// two spaces and newline-terminated, as json.Encoder with
// SetIndent("", "  ") writes it.
func encodeJSON(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	out := appendIndent(make([]byte, 0, len(b)+len(b)/2+1), b)
	return append(out, '\n'), nil
}

// writeJSON writes v's body (encodeJSON) with status code. v is encoded
// before the status line goes out, so a value that cannot be encoded (a
// NaN or ±Inf float) answers a 500 JSON error rather than a 200 with an
// empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	out, err := encodeJSON(v)
	if err != nil {
		obs.Logger().Error("serve: encode response", "err", err)
		code = http.StatusInternalServerError
		out, _ = encodeJSON(errorResponse{Error: "encode response: " + err.Error()})
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(out)
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// healthzResponse summarizes one org's loaded state.
type healthzResponse struct {
	Status        string  `json:"status"`
	Org           string  `json:"org,omitempty"`
	Networks      int     `json:"networks"`
	WindowStart   string  `json:"window_start"`
	WindowEnd     string  `json:"window_end"`
	Months        int     `json:"months"`
	Cases         int     `json:"cases"`
	Experiments   int     `json:"experiments"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// fleetHealthzResponse is the bare /healthz body of a multi-org server:
// liveness plus the fleet rollup, so probes need no org.
type fleetHealthzResponse struct {
	Status        string             `json:"status"`
	Orgs          []string           `json:"orgs"`
	Totals        tenant.FleetTotals `json:"totals"`
	UptimeSeconds float64            `json:"uptime_seconds"`
}

// handleHealthz resolves like a query endpoint but degrades instead of
// erroring: a multi-org server probed with no org answers for the whole
// fleet.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("org")
	if name == "" {
		name = r.Header.Get(OrgHeader)
	}
	if name == "" && s.def == nil {
		parts := make([]tenant.HealthPartial, 0, s.reg.Len())
		for _, o := range s.reg.Orgs() {
			parts = append(parts, tenant.HealthPartialOf(o))
		}
		merged, err := tenant.MergeHealth(parts)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, fleetHealthzResponse{
			Status:        merged.Status,
			Orgs:          s.reg.Names(),
			Totals:        merged.Totals,
			UptimeSeconds: time.Since(s.start).Seconds(),
		})
		return
	}
	sh, ok := s.resolveShard(w, r)
	if !ok {
		return
	}
	st := sh.f.State()
	window := st.Window
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:        "ok",
		Org:           sh.name,
		Networks:      len(st.Dataset.Networks()),
		WindowStart:   window[0].String(),
		WindowEnd:     window[len(window)-1].String(),
		Months:        len(window),
		Cases:         st.Dataset.Len(),
		Experiments:   len(mpa.ExperimentIDs()),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}

// rankEntry is one row of the /v1/rank response.
type rankEntry struct {
	Rank        int     `json:"rank"`
	Metric      string  `json:"metric"`
	DisplayName string  `json:"display_name"`
	Category    string  `json:"category"`
	MI          float64 `json:"mi_bits"`
}

func (s *Server) handleRank(sh *shard, w http.ResponseWriter, r *http.Request) {
	respond(w, r, sh.f, "rank_practices", "", "body/rank", nil, persist, func(q *mpa.Framework) (any, error) {
		ranked := q.RankPractices()
		out := make([]rankEntry, len(ranked))
		for i, e := range ranked {
			out[i] = rankEntry{
				Rank:        i + 1,
				Metric:      e.Metric,
				DisplayName: mpa.DisplayName(e.Metric),
				Category:    mpa.MetricCategory(e.Metric),
				MI:          e.MI,
			}
		}
		return out, nil
	})
}

// causalPoint is one comparison point of the /v1/causal response.
type causalPoint struct {
	Comparison       string  `json:"comparison"`
	Pairs            int     `json:"pairs"`
	FewerTickets     int     `json:"fewer_tickets"`
	NoEffect         int     `json:"no_effect"`
	MoreTickets      int     `json:"more_tickets"`
	PValue           float64 `json:"p_value"`
	Causal           bool    `json:"causal"`
	Balanced         bool    `json:"balanced"`
	Skipped          bool    `json:"skipped"`
	SensitivityGamma float64 `json:"sensitivity_gamma"`
}

type causalResponse struct {
	Treatment   string        `json:"treatment"`
	DisplayName string        `json:"display_name"`
	Points      []causalPoint `json:"points"`
}

func (s *Server) handleCausal(sh *shard, w http.ResponseWriter, r *http.Request) {
	metric := r.URL.Query().Get("practice")
	if metric == "" {
		writeError(w, http.StatusBadRequest, "missing required query parameter 'practice'")
		return
	}
	if !mpa.KnownMetric(metric) {
		writeError(w, http.StatusNotFound, "unknown practice metric %q", metric)
		return
	}
	respond(w, r, sh.f, "causal_analysis", "", "body/causal/"+metric, nil, persist, func(q *mpa.Framework) (any, error) {
		res, err := q.AnalyzeCausal(metric)
		if err != nil {
			return nil, &httpError{http.StatusInternalServerError, fmt.Sprintf("causal analysis failed: %v", err)}
		}
		out := causalResponse{
			Treatment:   res.Treatment,
			DisplayName: mpa.DisplayName(res.Treatment),
			Points:      make([]causalPoint, len(res.Points)),
		}
		for i, p := range res.Points {
			out.Points[i] = causalPoint{
				Comparison:       p.Comparison,
				Pairs:            p.Pairs,
				FewerTickets:     p.FewerTickets,
				NoEffect:         p.NoEffect,
				MoreTickets:      p.MoreTickets,
				PValue:           p.PValue,
				Causal:           p.Causal,
				Balanced:         p.Balanced,
				Skipped:          p.Skipped,
				SensitivityGamma: p.SensitivityGamma,
			}
		}
		return out, nil
	})
}

// predictResponse is the /v1/predict body.
type predictResponse struct {
	Network        string  `json:"network"`
	Month          string  `json:"month"`
	Tickets        int     `json:"tickets"`
	Predicted2     int     `json:"predicted_class2"`
	Predicted2Name string  `json:"predicted_class2_name"`
	Predicted5     int     `json:"predicted_class5"`
	Predicted5Name string  `json:"predicted_class5_name"`
	Actual2        int     `json:"actual_class2"`
	Actual5        int     `json:"actual_class5"`
	Accuracy2      float64 `json:"model2_cv_accuracy"`
	Accuracy5      float64 `json:"model5_cv_accuracy"`
}

// networkMonth parses the query of /v1/predict and /v1/network: a
// required network and an optional YYYY-MM month that defaults to the
// last window month. On a bad query it writes the 400 and reports false;
// an unknown network or a month outside the window is left to the
// framework call, which the handler answers with a 404.
func networkMonth(f *mpa.Framework, w http.ResponseWriter, r *http.Request) (string, mpa.Month, bool) {
	q := r.URL.Query()
	network := q.Get("network")
	if network == "" {
		writeError(w, http.StatusBadRequest, "missing required query parameter 'network'")
		return "", mpa.Month{}, false
	}
	ms := q.Get("month")
	if ms == "" {
		window := f.Window()
		return network, window[len(window)-1], true
	}
	t, err := time.Parse("2006-01", ms)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad month %q, want YYYY-MM", ms)
		return "", mpa.Month{}, false
	}
	return network, mpa.MonthOf(t), true
}

func (s *Server) handlePredict(sh *shard, w http.ResponseWriter, r *http.Request) {
	network, month, ok := networkMonth(sh.f, w, r)
	if !ok {
		return
	}
	// An unknown network or month is a 404 the snapshot's case index
	// decides: no disk key is hashed and no entry opened for it.
	check := func(q *mpa.Framework) error {
		if err := q.CheckCase(network, month); err != nil {
			return &httpError{http.StatusNotFound, err.Error()}
		}
		return nil
	}
	key := "body/predict/" + month.String() + "/" + network
	respond(w, r, sh.f, "predict", "", key, check, persist, func(q *mpa.Framework) (any, error) {
		pred, err := q.PredictNetworkMonth(network, month)
		if err != nil {
			return nil, &httpError{http.StatusNotFound, err.Error()}
		}
		return predictResponse{
			Network:        pred.Network,
			Month:          pred.Month.String(),
			Tickets:        pred.Tickets,
			Predicted2:     pred.Predicted2,
			Predicted2Name: pred.Predicted2Name,
			Predicted5:     pred.Predicted5,
			Predicted5Name: pred.Predicted5Name,
			Actual2:        pred.Actual2,
			Actual5:        pred.Actual5,
			Accuracy2:      pred.Accuracy2,
			Accuracy5:      pred.Accuracy5,
		}, nil
	})
}

// reportResponse is the /v1/report/{name} body, digest-stamped so two
// deployments can verify they serve identical results.
type reportResponse struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Text    string             `json:"text"`
	Numbers map[string]float64 `json:"numbers"`
	Digest  string             `json:"digest"`
}

func (s *Server) handleReport(sh *shard, w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	respond(w, r, sh.f, "experiment", "", "body/report/"+name, nil, reportLoaded(name), func(q *mpa.Framework) (any, error) {
		rep, ok := q.Experiment(name)
		if !ok {
			return nil, &httpError{http.StatusNotFound, fmt.Sprintf("unknown experiment %q (GET /v1/manifest lists the known ids after they run; see mpa.ExperimentIDs)", name)}
		}
		return reportResponse{
			ID:      rep.ID,
			Title:   rep.Title,
			Text:    rep.Text,
			Numbers: rep.Numbers,
			Digest:  rep.Digest(),
		}, nil
	})
}

// handleNetwork serves the per-network-month health summary. Its body
// is stored in the network's own memo, beside the summary it encodes
// (mpa.NetworkHealthCached): the heavy-traffic per-network dashboard
// path that stays warm across ingests touching other networks — or,
// under sharding, other orgs.
func (s *Server) handleNetwork(sh *shard, w http.ResponseWriter, r *http.Request) {
	network, month, ok := networkMonth(sh.f, w, r)
	if !ok {
		return
	}
	respond(w, r, sh.f, "network_health", network, "body/health/"+month.String(), nil, nil, func(q *mpa.Framework) (any, error) {
		nh, err := q.NetworkHealthCached(network, month)
		if err != nil {
			return nil, &httpError{http.StatusNotFound, err.Error()}
		}
		return nh, nil
	})
}

// maxIngestBytes is the default update-body bound: a month of snapshots
// for a large organization is tens of megabytes; anything past this is
// a client bug.
const maxIngestBytes = 256 << 20

// handleIngest applies one month of new data to the resolved shard's
// warm framework (see mpa.Framework.Ingest) — other shards' state and
// warm caches are untouched by construction. Malformed or
// non-appendable updates are 400s and change nothing; an oversized body
// is a 413; a 200 response means the update is fully applied and
// visible to every subsequent query against this org. The body is read
// into one buffer sized from its Content-Length, clamped to the body
// bound.
func (s *Server) handleIngest(sh *shard, w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	c := sp.Start("decode")
	size := min(r.ContentLength, s.cfg.MaxIngestBytes)
	u, err := ingest.DecodeSize(http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes), size)
	c.End()
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"update body exceeds %d bytes", s.cfg.MaxIngestBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c = sp.Start("ingest")
	res, err := sh.f.Ingest(u)
	c.End()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	enc := sp.Start("encode")
	defer enc.End()
	writeJSON(w, http.StatusOK, res)
}

// handleStream is the SSE feed: after every applied ingest into the
// resolved org, subscribers receive one "delta" event per touched
// network (sorted) and one "rank" event with the refreshed practice
// ranking. Events are pre-encoded JSON; a subscriber too slow to drain
// its buffer loses whole updates rather than stalling ingestion
// (ingest.stream_dropped counts them).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	sh, ok := s.resolveShard(w, r)
	if !ok {
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	obs.GetCounter("serve.requests.stream").Add(1)
	// Streams are connections, not requests: a subscriber that stays
	// attached for an hour must not register as an hour-long "request"
	// in any latency histogram (one would bury every real p99). The
	// serve.streams_open gauge carries the live population instead.
	s.streamsOpen.Add(1)
	defer s.streamsOpen.Add(-1)
	ch, cancel := sh.f.Subscribe()
	defer cancel()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// An immediate comment line flushes the response headers so clients
	// (and the smoke test's curl) see the stream is live before the
	// first event.
	fmt.Fprint(w, ": mpa ingest stream\n\n")
	fl.Flush()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.closing:
			// Graceful shutdown: end the stream so the connection can
			// drain instead of pinning Shutdown to its timeout.
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			fl.Flush()
		case update, open := <-ch:
			if !open {
				return
			}
			for _, ev := range update {
				if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, ev.Data); err != nil {
					return
				}
			}
			fl.Flush()
		}
	}
}

func (s *Server) handleManifest(sh *shard, w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	c := sp.Start("manifest")
	m := sh.f.Manifest()
	c.End()
	enc := sp.Start("encode")
	defer enc.End()
	writeJSON(w, http.StatusOK, m)
}

// handleFleetRank is the cross-org practice ranking: every shard's
// partial (its warm memoized ranking plus its case-count weight) fanned
// out over the worker pool, then reduced with tenant.MergeRank. The
// response is a pure function of the per-org partials — merging the
// orgs' /v1/rank responses offline reproduces it byte-for-byte.
func (s *Server) handleFleetRank(w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	c := sp.Start("fleet_rank")
	parts, err := par.Map(s.reg.Orgs(), func(_ int, o *tenant.Org) (tenant.RankPartial, error) {
		return tenant.RankPartialOf(o), nil
	})
	c.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	merged, err := tenant.MergeRank(parts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	enc := sp.Start("encode")
	defer enc.End()
	writeJSON(w, http.StatusOK, merged)
}

// handleFleetHealth is the cross-org loaded-state rollup: per-org
// summaries fanned out over the worker pool and reduced with
// tenant.MergeHealth (rows name-sorted, totals summed, window spanned).
func (s *Server) handleFleetHealth(w http.ResponseWriter, r *http.Request) {
	sp := obs.SpanFrom(r.Context())
	c := sp.Start("fleet_health")
	parts, err := par.Map(s.reg.Orgs(), func(_ int, o *tenant.Org) (tenant.HealthPartial, error) {
		return tenant.HealthPartialOf(o), nil
	})
	c.End()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	merged, err := tenant.MergeHealth(parts)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	enc := sp.Start("encode")
	defer enc.End()
	writeJSON(w, http.StatusOK, merged)
}
