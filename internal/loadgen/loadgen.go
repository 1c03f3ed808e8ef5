// Package loadgen is the substrate of cmd/mpa-loadgen: deterministic
// open-loop load plans against a running `mpa serve` daemon, client-side
// latency collection, and the mpa.load-manifest/v1 result artifact that
// cmd/mpa-benchdiff judges (each endpoint's p50 and p99 paired against a
// base revision's run on the same host, plus absolute floors on the
// change's own run; see scripts/paired.sh).
//
// # Open loop and coordinated omission
//
// The plan is open-loop: request arrival times are drawn up front from
// a seeded exponential (Poisson) process at the configured rate, and a
// request's latency is measured from its *scheduled* arrival time, not
// from when a client connection got around to sending it. A closed-loop
// generator silently stops sending when the server stalls, so the stall
// never shows up in its percentiles (coordinated omission); here a
// stalled server keeps accumulating scheduled-but-unserved requests and
// the backlog drains straight into p99. Latencies are recorded into
// obs.LogHistogram, so reported percentiles carry its ~5% relative
// error bound.
//
// # Determinism
//
// BuildPlan is a pure function of (rate, duration, seed, mix, targets):
// the same inputs yield the identical request sequence. The manifest is
// equally mechanical — identical recorded observations plus an injected
// timestamp encode to byte-identical JSON — which is what lets CI diff
// and archive load manifests the way it already diffs run manifests.
//
// # Schema (mpa.load-manifest/v1)
//
//	{
//	  "schema":     "mpa.load-manifest/v1",
//	  "created_at": RFC 3339 timestamp,
//	  "build":      {go_version, module, vcs_revision?, ...} (runinfo.BuildInfo),
//	  "target":     base URL the load was driven against,
//	  "config":     {rate, duration_seconds, seed, conns, mix},
//	  "totals":     {requests, errors, error_rate, elapsed_seconds, achieved_rps},
//	  "endpoints":  {name: {requests, errors, error_rate, throughput_rps,
//	                        latency_ms: {p50, p90, p99, p999, min, max, mean}}}
//	}
package loadgen

import (
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"mpa/internal/obs"
	"mpa/internal/rng"
	"mpa/internal/runinfo"
)

// Schema identifies the load-manifest format; bump on incompatible change.
const Schema = "mpa.load-manifest/v1"

// DefaultMix weights the daemon's read path the way a dashboard-heavy
// deployment does: mostly rankings and per-network summaries, some
// predictions, occasional causal/report/manifest queries.
const DefaultMix = "rank=30,network=25,predict=20,causal=10,report=10,manifest=5"

// MixEntry is one weighted endpoint of a load mix.
type MixEntry struct {
	Endpoint string
	Weight   int
}

// Mix is an ordered weighted endpoint set. Order matters for
// determinism: the seeded endpoint draw walks cumulative weights in
// declaration order.
type Mix []MixEntry

// knownEndpoints are the endpoint names a mix may reference, matching
// the daemon's query-wrapped /v1 set plus healthz.
var knownEndpoints = map[string]bool{
	"rank": true, "causal": true, "predict": true, "network": true,
	"report": true, "manifest": true, "healthz": true,
}

// ParseMix parses "rank=30,network=25,..." into a Mix. Weights are
// positive integers; endpoints must be known and not repeat.
func ParseMix(spec string) (Mix, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	var mix Mix
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		name, weightStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("loadgen: mix entry %q, want endpoint=weight", part)
		}
		if !knownEndpoints[name] {
			return nil, fmt.Errorf("loadgen: unknown mix endpoint %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("loadgen: endpoint %q repeated in mix", name)
		}
		seen[name] = true
		var weight int
		if _, err := fmt.Sscanf(weightStr, "%d", &weight); err != nil || weight <= 0 {
			return nil, fmt.Errorf("loadgen: mix weight %q for %q, want a positive integer", weightStr, name)
		}
		mix = append(mix, MixEntry{Endpoint: name, Weight: weight})
	}
	return mix, nil
}

// String renders the mix back in canonical spec form.
func (m Mix) String() string {
	parts := make([]string, len(m))
	for i, e := range m {
		parts[i] = fmt.Sprintf("%s=%d", e.Endpoint, e.Weight)
	}
	return strings.Join(parts, ",")
}

// Targets are the concrete parameter pools requests draw from. The
// loader bootstraps Networks and Months from the daemon's /healthz
// (generated networks are named net000…netN−1 and the window is
// contiguous), and takes practices/reports from flags.
type Targets struct {
	Networks  []string
	Months    []string
	Practices []string
	Reports   []string
}

// Request is one planned request: fire at At (relative to the run
// start), against Path, accounted under Endpoint. Org names the tenant
// of a multi-org run (sent as the X-MPA-Org header); empty targets the
// daemon's default tenant.
type Request struct {
	At       time.Duration
	Endpoint string
	Path     string
	Org      string
}

// OrgTargets is one tenant's target pools in a multi-org plan.
type OrgTargets struct {
	Org     string
	Targets Targets
}

// needs maps each endpoint to the target pool it draws from.
func (t Targets) pathFor(endpoint string, r *rng.RNG) (string, error) {
	pick := func(pool []string, what string) (string, error) {
		if len(pool) == 0 {
			return "", fmt.Errorf("loadgen: mix includes %q but no %s targets were provided", endpoint, what)
		}
		return pool[r.Intn(len(pool))], nil
	}
	switch endpoint {
	case "rank":
		return "/v1/rank", nil
	case "manifest":
		return "/v1/manifest", nil
	case "healthz":
		return "/healthz", nil
	case "causal":
		p, err := pick(t.Practices, "practice")
		if err != nil {
			return "", err
		}
		return "/v1/causal?practice=" + url.QueryEscape(p), nil
	case "predict", "network":
		n, err := pick(t.Networks, "network")
		if err != nil {
			return "", err
		}
		m, err := pick(t.Months, "month")
		if err != nil {
			return "", err
		}
		return "/v1/" + endpoint + "?network=" + url.QueryEscape(n) + "&month=" + url.QueryEscape(m), nil
	case "report":
		id, err := pick(t.Reports, "report")
		if err != nil {
			return "", err
		}
		return "/v1/report/" + url.PathEscape(id), nil
	}
	return "", fmt.Errorf("loadgen: unknown endpoint %q", endpoint)
}

// BuildPlan draws the full open-loop request schedule: exponential
// inter-arrivals at rate req/s (a Poisson arrival process) until
// duration is exhausted, each request assigned a mix-weighted endpoint,
// an org drawn uniformly from tenants, and concrete target parameters
// from that org's pools. With exactly one tenant no org draw happens, so
// a single-tenant plan's request sequence does not depend on the
// tenant's name. Pure in (rate, duration, seed, mix, tenants) — identical
// inputs produce the identical plan.
func BuildPlan(rate float64, duration time.Duration, seed uint64, mix Mix, tenants []OrgTargets) ([]Request, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate %v, want > 0", rate)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration %v, want > 0", duration)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("loadgen: empty mix")
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("loadgen: no tenants")
	}
	totalWeight := 0
	for _, e := range mix {
		totalWeight += e.Weight
	}
	arrivals := rng.New(seed).Fork(1)
	picks := rng.New(seed).Fork(2)
	meanGap := 1 / rate // seconds
	var plan []Request
	at := time.Duration(0)
	for {
		gap := arrivals.Exponential(meanGap)
		at += time.Duration(gap * float64(time.Second))
		if at >= duration {
			return plan, nil
		}
		w := picks.Intn(totalWeight)
		endpoint := mix[len(mix)-1].Endpoint
		for _, e := range mix {
			if w < e.Weight {
				endpoint = e.Endpoint
				break
			}
			w -= e.Weight
		}
		tenant := tenants[0]
		if len(tenants) > 1 {
			tenant = tenants[picks.Intn(len(tenants))]
		}
		path, err := tenant.Targets.pathFor(endpoint, picks)
		if err != nil {
			if tenant.Org != "" {
				return nil, fmt.Errorf("org %s: %w", tenant.Org, err)
			}
			return nil, err
		}
		plan = append(plan, Request{At: at, Endpoint: endpoint, Path: path, Org: tenant.Org})
	}
}

// Collector accumulates per-endpoint results as workers complete
// requests. Safe for concurrent use.
type Collector struct {
	mu  sync.Mutex
	eps map[string]*epCollector
}

type epCollector struct {
	hist   *obs.LogHistogram // nanoseconds; unregistered, per-run state
	errors int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{eps: map[string]*epCollector{}}
}

// Record tallies one completed request. failed marks transport errors,
// timeouts, and any response status ≥ 400.
func (c *Collector) Record(endpoint string, latency time.Duration, failed bool) {
	c.mu.Lock()
	ep, ok := c.eps[endpoint]
	if !ok {
		ep = &epCollector{hist: obs.NewLogHistogram()}
		c.eps[endpoint] = ep
	}
	if failed {
		ep.errors++
	}
	c.mu.Unlock()
	ep.hist.Observe(float64(latency.Nanoseconds()))
}

// Config records the load parameters inside the manifest.
type Config struct {
	Rate            float64 `json:"rate"`
	DurationSeconds float64 `json:"duration_seconds"`
	Seed            uint64  `json:"seed"`
	Conns           int     `json:"conns"`
	Mix             string  `json:"mix"`
	// Orgs lists the tenants of a multi-org run ("acme,globex"); empty
	// for a single-tenant run, keeping old manifests byte-compatible.
	Orgs string `json:"orgs,omitempty"`
}

// Totals aggregates the whole run.
type Totals struct {
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	ErrorRate      float64 `json:"error_rate"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	AchievedRPS    float64 `json:"achieved_rps"`
}

// Latency summarizes one endpoint's latency distribution in
// milliseconds. Percentiles inherit the log histogram's ~5% relative
// error bound; min/max/mean are exact.
type Latency struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	P999 float64 `json:"p999"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// EndpointStats is one endpoint's results.
type EndpointStats struct {
	Requests      int64   `json:"requests"`
	Errors        int64   `json:"errors"`
	ErrorRate     float64 `json:"error_rate"`
	ThroughputRPS float64 `json:"throughput_rps"`
	LatencyMS     Latency `json:"latency_ms"`
}

// Manifest is one load run's record.
type Manifest struct {
	Schema    string                   `json:"schema"`
	CreatedAt time.Time                `json:"created_at"`
	Build     runinfo.BuildInfo        `json:"build"`
	Target    string                   `json:"target"`
	Config    Config                   `json:"config"`
	Totals    Totals                   `json:"totals"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
}

// Manifest builds the run record from the collected results. createdAt
// and elapsed are injected rather than read from the clock so the
// encoding is a pure function of its inputs (the determinism test pins
// byte-identical output for identical observations).
func (c *Collector) Manifest(target string, cfg Config, elapsed time.Duration, createdAt time.Time) *Manifest {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := &Manifest{
		Schema:    Schema,
		CreatedAt: createdAt,
		Build:     runinfo.CollectBuild(),
		Target:    target,
		Config:    cfg,
		Endpoints: make(map[string]EndpointStats, len(c.eps)),
	}
	seconds := elapsed.Seconds()
	for name, ep := range c.eps {
		snap := ep.hist.Snapshot()
		const ms = 1e6
		st := EndpointStats{
			Requests: snap.Count,
			Errors:   ep.errors,
			LatencyMS: Latency{
				P50:  snap.Quantile(0.50) / ms,
				P90:  snap.Quantile(0.90) / ms,
				P99:  snap.Quantile(0.99) / ms,
				P999: snap.Quantile(0.999) / ms,
				Min:  snap.Min / ms,
				Max:  snap.Max / ms,
				Mean: snap.Mean() / ms,
			},
		}
		if st.Requests > 0 {
			st.ErrorRate = float64(st.Errors) / float64(st.Requests)
		}
		if seconds > 0 {
			st.ThroughputRPS = float64(st.Requests) / seconds
		}
		m.Endpoints[name] = st
		m.Totals.Requests += st.Requests
		m.Totals.Errors += st.Errors
	}
	m.Totals.ElapsedSeconds = seconds
	if m.Totals.Requests > 0 {
		m.Totals.ErrorRate = float64(m.Totals.Errors) / float64(m.Totals.Requests)
	}
	if seconds > 0 {
		m.Totals.AchievedRPS = float64(m.Totals.Requests) / seconds
	}
	return m
}

// Validate checks the invariants the schema promises.
func (m *Manifest) Validate() error {
	if m == nil {
		return fmt.Errorf("loadgen: nil manifest")
	}
	if m.Schema != Schema {
		return fmt.Errorf("loadgen: schema %q, want %q", m.Schema, Schema)
	}
	if m.CreatedAt.IsZero() {
		return fmt.Errorf("loadgen: created_at is zero")
	}
	if m.Totals.Requests < 0 || m.Totals.Errors < 0 || m.Totals.Errors > m.Totals.Requests {
		return fmt.Errorf("loadgen: inconsistent totals %+v", m.Totals)
	}
	var sum int64
	names := make([]string, 0, len(m.Endpoints))
	for name := range m.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := m.Endpoints[name]
		if ep.Requests < 0 || ep.Errors < 0 || ep.Errors > ep.Requests {
			return fmt.Errorf("loadgen: endpoint %q inconsistent counts %+v", name, ep)
		}
		if ep.ErrorRate < 0 || ep.ErrorRate > 1 {
			return fmt.Errorf("loadgen: endpoint %q error_rate %v outside [0,1]", name, ep.ErrorRate)
		}
		l := ep.LatencyMS
		if ep.Requests > 0 && (l.Min > l.Max || l.P50 < 0) {
			return fmt.Errorf("loadgen: endpoint %q malformed latency summary %+v", name, l)
		}
		sum += ep.Requests
	}
	if sum != m.Totals.Requests {
		return fmt.Errorf("loadgen: endpoint requests sum %d != totals %d", sum, m.Totals.Requests)
	}
	return nil
}

// Encode marshals the manifest as indented JSON with a trailing
// newline. Go's JSON encoder sorts map keys, so the bytes are a pure
// function of the manifest's fields.
func (m *Manifest) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("loadgen: marshal: %w", err)
	}
	return append(data, '\n'), nil
}

// Write encodes the manifest and renames it into place, so an
// interrupted run never leaves a truncated manifest behind.
func (m *Manifest) Write(path string) error {
	data, err := m.Encode()
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".load-manifest-*.json")
	if err != nil {
		return fmt.Errorf("loadgen: write: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("loadgen: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("loadgen: write: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("loadgen: write: %w", err)
	}
	return nil
}

// Read loads and validates a load manifest file.
func Read(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: read: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("loadgen: parse %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}
