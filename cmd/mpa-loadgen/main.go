// Command mpa-loadgen drives deterministic open-loop load against a
// running `mpa serve` daemon and writes an mpa.load-manifest/v1 JSON
// artifact (per-endpoint throughput, error rates, latency percentiles,
// build provenance) that cmd/mpa-benchdiff judges in CI against a base
// revision's run (scripts/paired.sh).
//
// Usage:
//
//	mpa-loadgen [-addr URL] [-rate N] [-duration D] [-mix SPEC]
//	            [-seed N] [-conns N] [-timeout D] [-out FILE]
//	            [-practices LIST] [-reports LIST] [-orgs LIST]
//
// The request schedule is open-loop: arrival times are drawn up front
// from a seeded exponential (Poisson) process at -rate req/s, and each
// request's latency is measured from its *scheduled* arrival time —
// not from when a connection got around to sending it — so a stalled
// server shows up in p99 instead of silently pausing the load
// (coordinated-omission resistance; see internal/loadgen). The same
// seed against the same daemon state replays the identical request
// sequence.
//
// Targets are bootstrapped from the daemon's /healthz: generated
// networks are named net000…netN−1 and the study window is contiguous,
// so the network count plus window bounds reconstruct every valid
// /v1/network and /v1/predict parameter. Practices and report IDs come
// from -practices/-reports.
//
// Against a multi-tenant daemon (`mpa serve -orgs`), pass the same org
// names via -orgs: each request draws its tenant uniformly and carries
// it in the X-MPA-Org header, and each org's target pools are
// bootstrapped from its own /healthz. Accounting stays per endpoint
// across tenants, so each endpoint's row in the manifest has the same
// shape as in a single-tenant run.
//
// Exit status: 0 on a completed run (errors are recorded in the
// manifest, not fatal), 1 on bad usage, an unreachable daemon, or a
// manifest write failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mpa/internal/loadgen"
	"mpa/internal/report"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", "http://localhost:8080", "base URL of the mpa serve daemon")
	flag.Float64Var(&cfg.rate, "rate", 50, "open-loop arrival rate in requests/second")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "load duration")
	flag.StringVar(&cfg.mixSpec, "mix", loadgen.DefaultMix, "endpoint mix as endpoint=weight[,endpoint=weight...]")
	flag.Uint64Var(&cfg.seed, "seed", 1, "schedule seed; same seed replays the same request sequence")
	flag.IntVar(&cfg.conns, "conns", 8, "concurrent client connections (workers)")
	flag.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request timeout; timeouts count as errors")
	flag.StringVar(&cfg.out, "out", "load-manifest.json", "load-manifest output path")
	flag.StringVar(&cfg.practices, "practices", "no_change_events", "comma-separated practice metrics for /v1/causal")
	flag.StringVar(&cfg.reports, "reports", "table2,table3", "comma-separated experiment IDs for /v1/report")
	flag.StringVar(&cfg.orgs, "orgs", "", "comma-separated org names of a multi-tenant daemon (sent as X-MPA-Org)")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mpa-loadgen [flags] (see -h)")
		os.Exit(1)
	}

	m, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpa-loadgen:", err)
		os.Exit(1)
	}
	if err := m.Write(cfg.out); err != nil {
		fmt.Fprintln(os.Stderr, "mpa-loadgen:", err)
		os.Exit(1)
	}
	fmt.Print(render(m))
	fmt.Printf("\nwrote %s (%d requests, %.1f req/s achieved, %.2f%% errors)\n",
		cfg.out, m.Totals.Requests, m.Totals.AchievedRPS, m.Totals.ErrorRate*100)
}

type runConfig struct {
	addr      string
	rate      float64
	duration  time.Duration
	mixSpec   string
	seed      uint64
	conns     int
	timeout   time.Duration
	out       string
	practices string
	reports   string
	orgs      string
}

// run bootstraps targets, executes the plan, and builds the manifest.
func run(cfg runConfig) (*loadgen.Manifest, error) {
	if cfg.conns <= 0 {
		return nil, fmt.Errorf("conns = %d, want > 0", cfg.conns)
	}
	mix, err := loadgen.ParseMix(cfg.mixSpec)
	if err != nil {
		return nil, err
	}
	base := strings.TrimSuffix(cfg.addr, "/")
	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.conns,
			MaxIdleConnsPerHost: cfg.conns,
		},
	}
	orgs := splitList(cfg.orgs)
	tenants := make([]loadgen.OrgTargets, 0, len(orgs)+1)
	if len(orgs) == 0 {
		targets, err := bootstrap(client, base, "", cfg)
		if err != nil {
			return nil, err
		}
		tenants = append(tenants, loadgen.OrgTargets{Targets: targets})
	}
	for _, org := range orgs {
		targets, err := bootstrap(client, base, org, cfg)
		if err != nil {
			return nil, fmt.Errorf("org %s: %w", org, err)
		}
		tenants = append(tenants, loadgen.OrgTargets{Org: org, Targets: targets})
	}
	plan, err := loadgen.BuildPlan(cfg.rate, cfg.duration, cfg.seed, mix, tenants)
	if err != nil {
		return nil, err
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("empty plan: rate %v over %v schedules no arrivals", cfg.rate, cfg.duration)
	}

	col := loadgen.NewCollector()
	// Full-plan buffering keeps the dispatcher from ever blocking on
	// saturated workers — blocking would couple the arrival process to
	// server speed, which is exactly the coordinated omission the
	// scheduled-time latency accounting exists to prevent.
	jobs := make(chan loadgen.Request, len(plan))
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				scheduled := start.Add(req.At)
				failed := false
				hr, err := http.NewRequest(http.MethodGet, base+req.Path, nil)
				if err != nil {
					col.Record(req.Endpoint, time.Since(scheduled), true)
					continue
				}
				if req.Org != "" {
					hr.Header.Set("X-MPA-Org", req.Org)
				}
				resp, err := client.Do(hr)
				if err != nil {
					failed = true
				} else {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					failed = resp.StatusCode >= 400
				}
				col.Record(req.Endpoint, time.Since(scheduled), failed)
			}
		}()
	}
	for _, req := range plan {
		time.Sleep(time.Until(start.Add(req.At)))
		jobs <- req
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	return col.Manifest(base, loadgen.Config{
		Rate:            cfg.rate,
		DurationSeconds: cfg.duration.Seconds(),
		Seed:            cfg.seed,
		Conns:           cfg.conns,
		Mix:             mix.String(),
		Orgs:            strings.Join(orgs, ","),
	}, elapsed, time.Now().UTC()), nil
}

// healthz mirrors the fields of GET /healthz the bootstrap needs.
type healthz struct {
	Status      string `json:"status"`
	Networks    int    `json:"networks"`
	WindowStart string `json:"window_start"`
	Months      int    `json:"months"`
}

// bootstrap derives the target pools from the daemon's /healthz — one
// org's view of it when org is non-empty.
func bootstrap(client *http.Client, base, org string, cfg runConfig) (loadgen.Targets, error) {
	hr, err := http.NewRequest(http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return loadgen.Targets{}, err
	}
	if org != "" {
		hr.Header.Set("X-MPA-Org", org)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return loadgen.Targets{}, fmt.Errorf("daemon unreachable: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return loadgen.Targets{}, fmt.Errorf("/healthz status %d", resp.StatusCode)
	}
	var h healthz
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return loadgen.Targets{}, fmt.Errorf("/healthz decode: %w", err)
	}
	if h.Status != "ok" || h.Networks <= 0 || h.Months <= 0 {
		return loadgen.Targets{}, fmt.Errorf("/healthz reports %+v, want ok with networks and months", h)
	}
	start, err := time.Parse("2006-01", h.WindowStart)
	if err != nil {
		return loadgen.Targets{}, fmt.Errorf("/healthz window_start %q: %w", h.WindowStart, err)
	}
	t := loadgen.Targets{
		Practices: splitList(cfg.practices),
		Reports:   splitList(cfg.reports),
	}
	for i := 0; i < h.Networks; i++ {
		t.Networks = append(t.Networks, fmt.Sprintf("net%03d", i))
	}
	for i := 0; i < h.Months; i++ {
		t.Months = append(t.Months, start.AddDate(0, i, 0).Format("2006-01"))
	}
	return t, nil
}

// splitList parses a comma-separated flag value, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// render draws the per-endpoint summary table.
func render(m *loadgen.Manifest) string {
	names := make([]string, 0, len(m.Endpoints))
	for name := range m.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	tb := report.NewTable("Endpoint", "Requests", "Err%", "req/s", "p50 ms", "p90 ms", "p99 ms", "p99.9 ms", "max ms")
	for _, name := range names {
		ep := m.Endpoints[name]
		l := ep.LatencyMS
		tb.AddRow(name,
			fmt.Sprintf("%d", ep.Requests),
			fmt.Sprintf("%.2f", ep.ErrorRate*100),
			fmt.Sprintf("%.1f", ep.ThroughputRPS),
			fmt.Sprintf("%.2f", l.P50), fmt.Sprintf("%.2f", l.P90),
			fmt.Sprintf("%.2f", l.P99), fmt.Sprintf("%.2f", l.P999),
			fmt.Sprintf("%.2f", l.Max))
	}
	return tb.String()
}
