// Package slo defines latency/error-rate service-level objectives and
// evaluates load-manifest results against them.
//
// A spec file (mpa.slo-spec/v1) names per-endpoint objectives:
//
//	{
//	  "schema": "mpa.slo-spec/v1",
//	  "endpoints": {
//	    "rank": {
//	      "max_error_rate": 0.01,
//	      "latency_ms": {"p50": 50, "p99": 500},
//	      "min_requests": 10
//	    }
//	  }
//	}
//
// Evaluate compares a spec against an mpa.load-manifest/v1 artifact
// (internal/loadgen) and returns one Check per objective, in
// deterministic order. An endpoint named in the spec but absent from
// the manifest is itself a violation — a gate that silently passes
// because the load run never exercised an endpoint is worse than a
// failing one. An endpoint with fewer than min_requests observations
// has its latency checks skipped (percentiles from a handful of
// samples gate nothing but noise); the error-rate check still runs.
//
// cmd/mpa-slogate wraps this into the CI gate: exit 0 when every check
// passes, exit 2 on any violation.
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"mpa/internal/loadgen"
)

// SpecSchema identifies the SLO spec format; bump on incompatible change.
const SpecSchema = "mpa.slo-spec/v1"

// Objective is the contract for one endpoint.
type Objective struct {
	// MaxErrorRate bounds errors/requests in [0,1]. Nil means no
	// error-rate objective for this endpoint.
	MaxErrorRate *float64 `json:"max_error_rate,omitempty"`
	// LatencyMS maps percentile name (p50/p90/p99/p999) to its upper
	// bound in milliseconds.
	LatencyMS map[string]float64 `json:"latency_ms,omitempty"`
	// MinRequests is the sample floor below which latency objectives
	// are skipped rather than enforced. Zero means enforce always.
	MinRequests int64 `json:"min_requests,omitempty"`
}

// Spec is a full SLO spec file.
type Spec struct {
	Schema    string               `json:"schema"`
	Endpoints map[string]Objective `json:"endpoints"`
}

// Validate checks internal consistency of the spec.
func (s *Spec) Validate() error {
	if s.Schema != SpecSchema {
		return fmt.Errorf("slo spec schema = %q, want %q", s.Schema, SpecSchema)
	}
	if len(s.Endpoints) == 0 {
		return fmt.Errorf("slo spec names no endpoints")
	}
	for ep, obj := range s.Endpoints {
		if obj.MaxErrorRate == nil && len(obj.LatencyMS) == 0 {
			return fmt.Errorf("endpoint %q: no objectives", ep)
		}
		if r := obj.MaxErrorRate; r != nil && (*r < 0 || *r > 1) {
			return fmt.Errorf("endpoint %q: max_error_rate = %v, want [0,1]", ep, *r)
		}
		for name, limit := range obj.LatencyMS {
			if _, ok := (loadgen.Latency{}).Percentile(name); !ok {
				return fmt.Errorf("endpoint %q: unknown percentile %q (want one of %v)",
					ep, name, loadgen.PercentileNames)
			}
			if limit <= 0 {
				return fmt.Errorf("endpoint %q: latency_ms.%s = %v, want > 0", ep, name, limit)
			}
		}
		if obj.MinRequests < 0 {
			return fmt.Errorf("endpoint %q: min_requests = %d, want >= 0", ep, obj.MinRequests)
		}
	}
	return nil
}

// ReadSpec loads and validates a spec file.
func ReadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read slo spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parse slo spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("invalid slo spec %s: %w", path, err)
	}
	return &s, nil
}

// Check is one objective's verdict.
type Check struct {
	Endpoint string  // endpoint the objective applies to
	Name     string  // "error_rate", "p50" … "p999", or "presence"
	Limit    float64 // the objective's bound
	Got      float64 // the measured value (0 when skipped/missing)
	OK       bool    // objective met
	Note     string  // set when skipped or missing, explains why
}

// Result is a full evaluation.
type Result struct {
	Checks     []Check
	Violations int // count of failed checks
}

// Evaluate runs every objective in spec against the manifest. Checks
// come back sorted by endpoint, then error_rate before latency
// percentiles in report order, so output is stable across runs.
func Evaluate(spec *Spec, m *loadgen.Manifest) Result {
	eps := make([]string, 0, len(spec.Endpoints))
	for ep := range spec.Endpoints {
		eps = append(eps, ep)
	}
	sort.Strings(eps)

	var res Result
	add := func(c Check) {
		if !c.OK {
			res.Violations++
		}
		res.Checks = append(res.Checks, c)
	}
	for _, ep := range eps {
		obj := spec.Endpoints[ep]
		st, ok := m.Endpoints[ep]
		if !ok || st.Requests == 0 {
			add(Check{Endpoint: ep, Name: "presence", OK: false,
				Note: "endpoint absent from load manifest — SLO not exercised"})
			continue
		}
		if obj.MaxErrorRate != nil {
			add(Check{Endpoint: ep, Name: "error_rate", Limit: *obj.MaxErrorRate,
				Got: st.ErrorRate, OK: st.ErrorRate <= *obj.MaxErrorRate})
		}
		skipLatency := st.Requests < obj.MinRequests
		for _, name := range loadgen.PercentileNames {
			limit, has := obj.LatencyMS[name]
			if !has {
				continue
			}
			if skipLatency {
				add(Check{Endpoint: ep, Name: name, Limit: limit, OK: true,
					Note: fmt.Sprintf("skipped: %d requests < min_requests %d",
						st.Requests, obj.MinRequests)})
				continue
			}
			got, _ := st.LatencyMS.Percentile(name)
			add(Check{Endpoint: ep, Name: name, Limit: limit, Got: got, OK: got <= limit})
		}
	}
	return res
}
