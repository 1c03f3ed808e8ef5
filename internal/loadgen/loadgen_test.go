package loadgen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testTargets() Targets {
	return Targets{
		Networks:  []string{"net000", "net001", "net002"},
		Months:    []string{"2014-01", "2014-02"},
		Practices: []string{"no_change_events"},
		Reports:   []string{"table2", "table3"},
	}
}

// oneTenant is the target list of a single-org daemon.
func oneTenant(t Targets) []OrgTargets { return []OrgTargets{{Targets: t}} }

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("rank=3, network=2,manifest=1")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[0] != (MixEntry{"rank", 3}) || mix[2] != (MixEntry{"manifest", 1}) {
		t.Errorf("mix = %+v", mix)
	}
	if got := mix.String(); got != "rank=3,network=2,manifest=1" {
		t.Errorf("canonical mix = %q", got)
	}
	for _, bad := range []string{
		"", "rank", "rank=0", "rank=-1", "rank=x", "nosuch=1", "rank=1,rank=2",
	} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
	if _, err := ParseMix(DefaultMix); err != nil {
		t.Errorf("DefaultMix does not parse: %v", err)
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	mix, _ := ParseMix(DefaultMix)
	a, err := BuildPlan(200, 2*time.Second, 42, mix, oneTenant(testTargets()))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildPlan(200, 2*time.Second, 42, mix, oneTenant(testTargets()))
	if len(a) == 0 {
		t.Fatal("empty plan")
	}
	if len(a) != len(b) {
		t.Fatalf("plan lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must yield a different schedule.
	c, _ := BuildPlan(200, 2*time.Second, 43, mix, oneTenant(testTargets()))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("distinct seeds produced identical plans")
	}
}

func TestBuildPlanShape(t *testing.T) {
	mix, _ := ParseMix("rank=1,predict=1,causal=1,report=1")
	plan, err := BuildPlan(500, time.Second, 7, mix, oneTenant(testTargets()))
	if err != nil {
		t.Fatal(err)
	}
	// Open-loop at 500/s over 1s: expect ~500 arrivals; Poisson noise
	// stays well inside ±40%.
	if len(plan) < 300 || len(plan) > 700 {
		t.Errorf("plan size = %d, want ≈500", len(plan))
	}
	seen := map[string]bool{}
	var last time.Duration
	for _, req := range plan {
		if req.At < last {
			t.Fatalf("arrivals not monotone: %v after %v", req.At, last)
		}
		last = req.At
		if req.At >= time.Second {
			t.Fatalf("arrival %v past the duration", req.At)
		}
		seen[req.Endpoint] = true
		switch req.Endpoint {
		case "rank":
			if req.Path != "/v1/rank" {
				t.Fatalf("rank path = %q", req.Path)
			}
		case "predict":
			if !strings.HasPrefix(req.Path, "/v1/predict?network=net00") ||
				!strings.Contains(req.Path, "&month=2014-0") {
				t.Fatalf("predict path = %q", req.Path)
			}
		case "causal":
			if req.Path != "/v1/causal?practice=no_change_events" {
				t.Fatalf("causal path = %q", req.Path)
			}
		case "report":
			if !strings.HasPrefix(req.Path, "/v1/report/table") {
				t.Fatalf("report path = %q", req.Path)
			}
		}
	}
	for _, ep := range []string{"rank", "predict", "causal", "report"} {
		if !seen[ep] {
			t.Errorf("mix endpoint %q never drawn in %d requests", ep, len(plan))
		}
	}
}

func TestBuildPlanMissingTargets(t *testing.T) {
	mix, _ := ParseMix("causal=1")
	if _, err := BuildPlan(100, time.Second, 1, mix, oneTenant(Targets{})); err == nil {
		t.Fatal("causal mix without practices accepted")
	}
	mix, _ = ParseMix("predict=1")
	if _, err := BuildPlan(100, time.Second, 1, mix, oneTenant(Targets{Months: []string{"2014-01"}})); err == nil {
		t.Fatal("predict mix without networks accepted")
	}
}

// record replays a fixed set of observations into a collector.
func record(c *Collector) {
	lat := []time.Duration{
		2 * time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond,
		900 * time.Microsecond, 7 * time.Millisecond,
	}
	for i, d := range lat {
		c.Record("rank", d, false)
		c.Record("network", d*2, i == 4) // one failure
	}
}

// TestManifestDeterministic is the satellite acceptance test: the same
// seed and the same recorded latencies must encode to a byte-identical
// load manifest.
func TestManifestDeterministic(t *testing.T) {
	cfg := Config{Rate: 100, DurationSeconds: 5, Seed: 9, Conns: 4, Mix: DefaultMix}
	createdAt := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	build := func() []byte {
		c := NewCollector()
		record(c)
		m := c.Manifest("http://localhost:8080", cfg, 5*time.Second, createdAt)
		data, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("identical runs encoded differently:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestManifestStats(t *testing.T) {
	c := NewCollector()
	record(c)
	m := c.Manifest("http://x", Config{Rate: 1, DurationSeconds: 5, Mix: "rank=1"},
		5*time.Second, time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	if m.Totals.Requests != 10 || m.Totals.Errors != 1 {
		t.Errorf("totals = %+v, want 10 requests / 1 error", m.Totals)
	}
	if m.Totals.AchievedRPS != 2 {
		t.Errorf("achieved rps = %v, want 2", m.Totals.AchievedRPS)
	}
	rank := m.Endpoints["rank"]
	if rank.Requests != 5 || rank.Errors != 0 || rank.ErrorRate != 0 {
		t.Errorf("rank = %+v", rank)
	}
	if rank.LatencyMS.Min < 0.89 || rank.LatencyMS.Min > 0.91 {
		t.Errorf("rank min = %v ms, want ≈0.9", rank.LatencyMS.Min)
	}
	if rank.LatencyMS.Max < 39 || rank.LatencyMS.Max > 41 {
		t.Errorf("rank max = %v ms, want ≈40", rank.LatencyMS.Max)
	}
	if rank.LatencyMS.P50 > rank.LatencyMS.P99 {
		t.Errorf("rank percentiles not monotone: %+v", rank.LatencyMS)
	}
	network := m.Endpoints["network"]
	if network.Errors != 1 || network.ErrorRate != 0.2 {
		t.Errorf("network = %+v, want 1 error at rate 0.2", network)
	}
}

func TestManifestWriteReadRoundTrip(t *testing.T) {
	c := NewCollector()
	record(c)
	m := c.Manifest("http://x", Config{Rate: 1, DurationSeconds: 5, Mix: "rank=1"},
		5*time.Second, time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
	path := filepath.Join(t.TempDir(), "load-manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Totals != m.Totals || len(got.Endpoints) != len(m.Endpoints) {
		t.Errorf("round-trip mismatch: %+v vs %+v", got.Totals, m.Totals)
	}
}

func TestManifestValidateRejects(t *testing.T) {
	base := func() *Manifest {
		c := NewCollector()
		record(c)
		return c.Manifest("http://x", Config{}, time.Second, time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	}
	m := base()
	m.Schema = "nope"
	if err := m.Validate(); err == nil {
		t.Error("wrong schema accepted")
	}
	m = base()
	m.CreatedAt = time.Time{}
	if err := m.Validate(); err == nil {
		t.Error("zero created_at accepted")
	}
	m = base()
	m.Totals.Requests = 3 // no longer the endpoint sum
	if err := m.Validate(); err == nil {
		t.Error("inconsistent totals accepted")
	}
	ep := m.Endpoints["rank"]
	m = base()
	ep.ErrorRate = 1.5
	m.Endpoints["rank"] = ep
	if err := m.Validate(); err == nil {
		t.Error("error_rate > 1 accepted")
	}
}

// TestBuildPlanTenants: a one-tenant plan makes no org draw — its
// requests carry no org, and its sequence is the one pinned below for
// seed 42 whatever the tenant is named, so a paired run's requests
// stay put — and a multi-org plan must tag every request with a
// registered org and visit each one.
func TestBuildPlanTenants(t *testing.T) {
	mix, _ := ParseMix(DefaultMix)
	single, err := BuildPlan(200, 2*time.Second, 42, mix, oneTenant(testTargets()))
	if err != nil {
		t.Fatal(err)
	}
	named, _ := BuildPlan(200, 2*time.Second, 42, mix, []OrgTargets{{Org: "acme", Targets: testTargets()}})
	if len(single) != len(named) {
		t.Fatalf("plan lengths differ: %d vs %d", len(single), len(named))
	}
	h := sha256.New()
	for i, req := range single {
		if req.Org != "" {
			t.Fatalf("anonymous tenant tagged request %d with org %q", i, req.Org)
		}
		if named[i].Org != "acme" {
			t.Fatalf("named tenant's request %d has org %q", i, named[i].Org)
		}
		if named[i].At != req.At || named[i].Path != req.Path {
			t.Fatalf("tenant name moved request %d: %+v vs %+v", i, named[i], req)
		}
		fmt.Fprintf(h, "%d %s %s\n", req.At, req.Endpoint, req.Path)
	}
	const want = "2f7b4829cd038ba2955bff6995a1e99a5a184e0500207d915e81fcf22624e774"
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(single) != 413 || got != want {
		t.Errorf("one-tenant seed-42 plan: %d requests, digest %s; want 413, %s", len(single), got, want)
	}

	tenants := []OrgTargets{
		{Org: "acme", Targets: testTargets()},
		{Org: "globex", Targets: testTargets()},
	}
	multi, err := BuildPlan(200, 2*time.Second, 42, mix, tenants)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, req := range multi {
		seen[req.Org]++
	}
	for _, org := range []string{"acme", "globex"} {
		if seen[org] == 0 {
			t.Errorf("org %s never drawn in %d requests", org, len(multi))
		}
	}
	if seen[""] != 0 {
		t.Errorf("%d requests left untagged in a multi-org plan", seen[""])
	}

	if _, err := BuildPlan(200, time.Second, 1, mix, nil); err == nil {
		t.Error("BuildPlan accepted an empty tenant list")
	}
}
