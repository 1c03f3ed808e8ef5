package slo

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mpa/internal/loadgen"
)

func f(v float64) *float64 { return &v }

// testManifest builds a manifest with known latency shape: rank p99 ≈
// 40ms, one network failure in five requests (error rate 0.2).
func testManifest(t *testing.T) *loadgen.Manifest {
	t.Helper()
	c := loadgen.NewCollector()
	lat := []time.Duration{
		2 * time.Millisecond, 3 * time.Millisecond, 40 * time.Millisecond,
		900 * time.Microsecond, 7 * time.Millisecond,
	}
	for i, d := range lat {
		c.Record("rank", d, false)
		c.Record("network", d*2, i == 4)
	}
	return c.Manifest("http://x", loadgen.Config{Rate: 1, DurationSeconds: 5, Mix: "rank=1"},
		5*time.Second, time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC))
}

func TestEvaluatePasses(t *testing.T) {
	spec := &Spec{Schema: SpecSchema, Endpoints: map[string]Objective{
		"rank":    {MaxErrorRate: f(0), LatencyMS: map[string]float64{"p50": 50, "p99": 100}},
		"network": {MaxErrorRate: f(0.25), LatencyMS: map[string]float64{"p99": 200}},
	}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	res := Evaluate(spec, testManifest(t))
	if res.Violations != 0 {
		for _, c := range res.Checks {
			t.Logf("%+v", c)
		}
		t.Fatalf("violations = %d, want 0", res.Violations)
	}
	if len(res.Checks) != 5 {
		t.Errorf("checks = %d, want 5", len(res.Checks))
	}
	// Deterministic ordering: sorted endpoints, error_rate first.
	want := []string{"network/error_rate", "network/p99", "rank/error_rate", "rank/p50", "rank/p99"}
	for i, c := range res.Checks {
		if got := c.Endpoint + "/" + c.Name; got != want[i] {
			t.Errorf("check[%d] = %s, want %s", i, got, want[i])
		}
	}
}

// TestEvaluateTightenedThresholdViolates is the acceptance test for the
// gate: take a passing spec, tighten one latency threshold below the
// measured percentile, and the evaluation must flip to a violation —
// the condition mpa-slogate turns into exit status 2.
func TestEvaluateTightenedThresholdViolates(t *testing.T) {
	m := testManifest(t)
	spec := &Spec{Schema: SpecSchema, Endpoints: map[string]Objective{
		"rank": {LatencyMS: map[string]float64{"p99": 100}},
	}}
	if res := Evaluate(spec, m); res.Violations != 0 {
		t.Fatalf("baseline spec already violating: %+v", res.Checks)
	}
	// rank's max observation is 40ms, so p99 ≥ ~38ms; 1ms must trip.
	spec.Endpoints["rank"] = Objective{LatencyMS: map[string]float64{"p99": 1}}
	res := Evaluate(spec, m)
	if res.Violations != 1 {
		t.Fatalf("tightened spec violations = %d, want 1: %+v", res.Violations, res.Checks)
	}
	c := res.Checks[0]
	if c.OK || c.Name != "p99" || c.Got <= c.Limit {
		t.Errorf("violation check = %+v", c)
	}
}

func TestEvaluateErrorRate(t *testing.T) {
	spec := &Spec{Schema: SpecSchema, Endpoints: map[string]Objective{
		"network": {MaxErrorRate: f(0.1)},
	}}
	res := Evaluate(spec, testManifest(t)) // network error rate is 0.2
	if res.Violations != 1 || res.Checks[0].Name != "error_rate" {
		t.Errorf("result = %+v, want one error_rate violation", res.Checks)
	}
}

func TestEvaluateMissingEndpointIsViolation(t *testing.T) {
	spec := &Spec{Schema: SpecSchema, Endpoints: map[string]Objective{
		"causal": {LatencyMS: map[string]float64{"p50": 100}},
	}}
	res := Evaluate(spec, testManifest(t))
	if res.Violations != 1 || res.Checks[0].Name != "presence" || res.Checks[0].Note == "" {
		t.Errorf("missing endpoint result = %+v, want presence violation", res.Checks)
	}
}

func TestEvaluateMinRequestsSkipsLatencyNotErrors(t *testing.T) {
	spec := &Spec{Schema: SpecSchema, Endpoints: map[string]Objective{
		// 5 requests < 100: latency skipped even though 1ms would trip,
		// but the error-rate objective still fires.
		"network": {MaxErrorRate: f(0.1), LatencyMS: map[string]float64{"p99": 1}, MinRequests: 100},
	}}
	res := Evaluate(spec, testManifest(t))
	if res.Violations != 1 {
		t.Fatalf("violations = %d, want 1 (error_rate only): %+v", res.Violations, res.Checks)
	}
	for _, c := range res.Checks {
		switch c.Name {
		case "error_rate":
			if c.OK {
				t.Errorf("error_rate passed despite 0.2 > 0.1")
			}
		case "p99":
			if !c.OK || c.Note == "" {
				t.Errorf("p99 below min_requests = %+v, want skipped-ok with note", c)
			}
		}
	}
}

func TestSpecValidateRejects(t *testing.T) {
	cases := map[string]*Spec{
		"wrong schema": {Schema: "nope", Endpoints: map[string]Objective{
			"rank": {LatencyMS: map[string]float64{"p50": 1}}}},
		"no endpoints": {Schema: SpecSchema},
		"no objectives": {Schema: SpecSchema, Endpoints: map[string]Objective{
			"rank": {}}},
		"bad error rate": {Schema: SpecSchema, Endpoints: map[string]Objective{
			"rank": {MaxErrorRate: f(1.5)}}},
		"unknown percentile": {Schema: SpecSchema, Endpoints: map[string]Objective{
			"rank": {LatencyMS: map[string]float64{"p75": 10}}}},
		"nonpositive latency": {Schema: SpecSchema, Endpoints: map[string]Objective{
			"rank": {LatencyMS: map[string]float64{"p50": 0}}}},
		"negative min_requests": {Schema: SpecSchema, Endpoints: map[string]Objective{
			"rank": {LatencyMS: map[string]float64{"p50": 1}, MinRequests: -1}}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadSpec(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "slo.json")
	spec := Spec{Schema: SpecSchema, Endpoints: map[string]Objective{
		"rank": {MaxErrorRate: f(0.01), LatencyMS: map[string]float64{"p99": 500}, MinRequests: 10},
	}}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.Endpoints["rank"].MinRequests != 10 || *got.Endpoints["rank"].MaxErrorRate != 0.01 {
		t.Errorf("round-trip spec = %+v", got.Endpoints["rank"])
	}

	if _, err := ReadSpec(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := ReadSpec(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
}
