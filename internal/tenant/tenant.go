// Package tenant generalizes the daemon from one warm Framework to N:
// an organization registry that loads and infers one framework per org
// (each with its own cache namespace, snapshot query memos, and ingest
// path), plus the map-reduce merge layer behind the fleet-wide
// aggregate endpoints (/v1/fleet/*).
//
// The paper's analytics are framed per-organization; the registry is
// what lets one resident process serve many organizations behind a
// shard router (internal/serve) without the orgs sharing any mutable
// state: every framework owns its substrates, its memoized query layer,
// and its ingest serialization, so an update applied to one org can
// never invalidate — or even observe — another org's warm state.
//
// Fleet aggregates follow the split/merge pattern: each shard computes
// its partial result from its own warm caches (the "map" side, fanned
// out over internal/par by the serve layer), and MergeRank/MergeHealth
// reduce the partials deterministically — sorted, tie-broken, and
// weighted so that merging the same partials always yields the same
// bytes. The correctness bar mirrors the rest of the repository:
// merging per-org results offline must reproduce the fleet endpoint's
// response byte-for-byte.
package tenant

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"mpa"
	"mpa/internal/par"
)

// MaxNameLen bounds organization names.
const MaxNameLen = 32

// reservedNames are org names that would collide with (or read like)
// router path segments and fleet endpoints.
var reservedNames = map[string]bool{
	"fleet": true, "orgs": true, "debug": true, "metrics": true, "healthz": true,
}

// ValidName reports whether s is a legal organization name: 1 to
// MaxNameLen of [a-z0-9-], starting with an alphanumeric, and not a
// reserved routing word. The alphabet is deliberately tiny — names are
// used as URL path segments, header values, and metric-name components.
func ValidName(s string) bool {
	if len(s) == 0 || len(s) > MaxNameLen || reservedNames[s] {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case c == '-' && i > 0:
		default:
			return false
		}
	}
	return true
}

// OrgSpec describes one organization to load. Zero Networks or Months
// inherit the base config's values at Load time.
type OrgSpec struct {
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`
	Networks int    `json:"networks,omitempty"`
	Months   int    `json:"months,omitempty"`
}

// ParseOrgs parses the compact `-orgs` flag form:
//
//	name=seed[:networks[:months]],name=seed...
//
// e.g. "acme=1,globex=2" or "acme=1:24:6,globex=2:8". Names must be
// valid (ValidName) and unique.
func ParseOrgs(spec string) ([]OrgSpec, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("tenant: empty orgs spec")
	}
	var specs []OrgSpec
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant: orgs entry %q, want name=seed[:networks[:months]]", part)
		}
		if !ValidName(name) {
			return nil, fmt.Errorf("tenant: invalid org name %q (want 1-%d of [a-z0-9-], not reserved)", name, MaxNameLen)
		}
		if seen[name] {
			return nil, fmt.Errorf("tenant: org %q repeated", name)
		}
		seen[name] = true
		fields := strings.Split(rest, ":")
		if len(fields) > 3 {
			return nil, fmt.Errorf("tenant: orgs entry %q has %d fields, want at most seed:networks:months", part, len(fields))
		}
		s := OrgSpec{Name: name}
		seed, err := strconv.ParseUint(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tenant: org %q seed %q: want an unsigned integer", name, fields[0])
		}
		s.Seed = seed
		if len(fields) > 1 {
			if s.Networks, err = strconv.Atoi(fields[1]); err != nil || s.Networks < 1 {
				return nil, fmt.Errorf("tenant: org %q networks %q: want a positive integer", name, fields[1])
			}
		}
		if len(fields) > 2 {
			if s.Months, err = strconv.Atoi(fields[2]); err != nil || s.Months < 1 {
				return nil, fmt.Errorf("tenant: org %q months %q: want a positive integer", name, fields[2])
			}
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// configFile is the `-orgs-config` JSON registry form.
type configFile struct {
	Orgs []OrgSpec `json:"orgs"`
}

// ReadConfig loads org specs from a JSON registry file:
//
//	{"orgs": [{"name": "acme", "seed": 1, "networks": 24, "months": 6}, ...]}
//
// Unknown fields are rejected so a typo'd key fails loudly.
func ReadConfig(path string) ([]OrgSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: read registry config: %w", err)
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var cf configFile
	if err := dec.Decode(&cf); err != nil {
		return nil, fmt.Errorf("tenant: parse registry config %s: %w", path, err)
	}
	if len(cf.Orgs) == 0 {
		return nil, fmt.Errorf("tenant: registry config %s lists no orgs", path)
	}
	seen := map[string]bool{}
	for _, s := range cf.Orgs {
		if !ValidName(s.Name) {
			return nil, fmt.Errorf("tenant: registry config %s: invalid org name %q", path, s.Name)
		}
		if seen[s.Name] {
			return nil, fmt.Errorf("tenant: registry config %s: org %q repeated", path, s.Name)
		}
		seen[s.Name] = true
	}
	return cf.Orgs, nil
}

// Org is one registered organization: its warm framework plus the
// config it was built from.
type Org struct {
	Name string
	Cfg  mpa.Config
	F    *mpa.Framework
}

// Registry holds the fleet's organizations in name order.
type Registry struct {
	orgs  []*Org
	names []string
}

// New builds a registry over already-constructed orgs (the test path;
// production loads go through Load). Names must be valid and unique.
func New(orgs []*Org) (*Registry, error) {
	if len(orgs) == 0 {
		return nil, fmt.Errorf("tenant: registry needs at least one org")
	}
	for _, o := range orgs {
		if o == nil || o.F == nil {
			return nil, fmt.Errorf("tenant: nil org or framework")
		}
		if !ValidName(o.Name) {
			return nil, fmt.Errorf("tenant: invalid org name %q", o.Name)
		}
	}
	r := &Registry{orgs: slices.Clone(orgs)}
	slices.SortFunc(r.orgs, func(a, b *Org) int { return strings.Compare(a.Name, b.Name) })
	for i, o := range r.orgs {
		if i > 0 && o.Name == r.orgs[i-1].Name {
			return nil, fmt.Errorf("tenant: org %q repeated", o.Name)
		}
		r.names = append(r.names, o.Name)
	}
	return r, nil
}

// Load builds and infers one synthetic framework per spec, fanning the
// org loads out over the worker pool (cross-org loads share no state).
// base supplies the settings a spec does not override: networks and the
// study window (via base.Start/base.End), the change-event rate, and
// caching. Each org's disk cache tier — when one is configured — lives
// in its own subdirectory (<dir>/orgs/<name>), so tenants never share
// cache files even though the content-addressed keys would already keep
// their entries distinct.
func Load(specs []OrgSpec, base mpa.Config) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: no orgs to load")
	}
	orgs, err := par.Map(specs, func(_ int, s OrgSpec) (*Org, error) {
		if !ValidName(s.Name) {
			return nil, fmt.Errorf("tenant: invalid org name %q", s.Name)
		}
		cfg := base
		cfg.Seed = s.Seed
		if s.Networks > 0 {
			cfg.Networks = s.Networks
		}
		if s.Months > 0 {
			cfg.End = cfg.Start.Add(s.Months - 1)
		}
		if cfg.Cache.Dir != "" {
			cfg.Cache.Dir = filepath.Join(cfg.Cache.Dir, "orgs", s.Name)
		}
		f, err := mpa.NewSynthetic(cfg)
		if err != nil {
			return nil, fmt.Errorf("tenant: load org %q: %w", s.Name, err)
		}
		return &Org{Name: s.Name, Cfg: cfg, F: f}, nil
	})
	if err != nil {
		return nil, err
	}
	return New(orgs)
}

// Names returns the org names, sorted.
func (r *Registry) Names() []string { return r.names }

// Orgs returns the orgs in name order.
func (r *Registry) Orgs() []*Org { return r.orgs }

// Len returns the number of registered orgs.
func (r *Registry) Len() int { return len(r.names) }

// RankPartial is one shard's contribution to the fleet practice
// ranking: its per-org MI ranking plus the number of network-month
// cases backing it (the merge weight).
type RankPartial struct {
	Org   string                   `json:"org"`
	Cases int                      `json:"cases"`
	Rank  []mpa.PracticeDependence `json:"rank"`
}

// RankPartialOf computes one org's partial from its warm query layer
// (no pipeline stage re-runs when the ranking is already memoized). The
// ranking and its case count come from one snapshot.
func RankPartialOf(o *Org) RankPartial {
	st := o.F.State()
	return RankPartial{
		Org:   o.Name,
		Cases: st.Dataset.Len(),
		Rank:  st.RankPractices(),
	}
}

// FleetRankEntry is one practice's row in the merged fleet ranking.
type FleetRankEntry struct {
	Rank        int    `json:"rank"`
	Metric      string `json:"metric"`
	DisplayName string `json:"display_name"`
	Category    string `json:"category"`
	// MI is the case-weighted mean of the orgs' per-practice MI — each
	// org's dependence estimate counts in proportion to the number of
	// network-month observations behind it.
	MI   float64 `json:"mi_bits"`
	Orgs int     `json:"orgs"`
}

// FleetRank is the merged fleet-wide practice ranking (/v1/fleet/rank).
type FleetRank struct {
	Orgs    int              `json:"orgs"`
	Cases   int              `json:"cases"`
	Entries []FleetRankEntry `json:"entries"`
}

// catalogueIndex is metric's position in mpa.MetricNames, or one past
// the end for a metric the catalogue does not name.
func catalogueIndex(metric string) int {
	if i := slices.Index(mpa.MetricNames, metric); i >= 0 {
		return i
	}
	return len(mpa.MetricNames)
}

// MergeRank reduces per-org ranking partials into the fleet ranking:
// for every practice, the case-weighted mean MI across the orgs that
// report it, ordered by decreasing MI. Ties keep catalogue order, as
// Framework.RankPractices does, so a one-org fleet ranks exactly like
// its org; metrics outside the catalogue go last, by name. The reduction
// is a pure function of the partials — merging the same per-org results
// offline reproduces the fleet endpoint byte-for-byte — and is
// insensitive to partial order.
func MergeRank(parts []RankPartial) (*FleetRank, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tenant: no rank partials to merge")
	}
	type acc struct {
		weighted float64 // Σ cases·MI
		sum      float64 // Σ MI, the unweighted fallback
		weight   float64 // Σ cases
		orgs     int
	}
	byMetric := map[string]*acc{}
	out := &FleetRank{Orgs: len(parts)}
	for _, p := range parts {
		if p.Cases < 0 {
			return nil, fmt.Errorf("tenant: org %q reports %d cases", p.Org, p.Cases)
		}
		out.Cases += p.Cases
		for _, e := range p.Rank {
			a := byMetric[e.Metric]
			if a == nil {
				a = &acc{}
				byMetric[e.Metric] = a
			}
			a.weighted += float64(p.Cases) * e.MI
			a.sum += e.MI
			a.weight += float64(p.Cases)
			a.orgs++
		}
	}
	for metric, a := range byMetric {
		mi := a.sum / float64(a.orgs)
		if a.weight > 0 {
			mi = a.weighted / a.weight
		}
		out.Entries = append(out.Entries, FleetRankEntry{
			Metric:      metric,
			DisplayName: mpa.DisplayName(metric),
			Category:    mpa.MetricCategory(metric),
			MI:          mi,
			Orgs:        a.orgs,
		})
	}
	sort.Slice(out.Entries, func(i, j int) bool {
		a, b := out.Entries[i], out.Entries[j]
		if a.MI != b.MI {
			return a.MI > b.MI
		}
		if ca, cb := catalogueIndex(a.Metric), catalogueIndex(b.Metric); ca != cb {
			return ca < cb
		}
		return a.Metric < b.Metric
	})
	for i := range out.Entries {
		out.Entries[i].Rank = i + 1
	}
	return out, nil
}

// HealthPartial is one shard's loaded-state summary: the per-org rows
// of /v1/fleet/health.
type HealthPartial struct {
	Org         string `json:"org"`
	Networks    int    `json:"networks"`
	Months      int    `json:"months"`
	Cases       int    `json:"cases"`
	Tickets     int    `json:"tickets"`
	WindowStart string `json:"window_start"`
	WindowEnd   string `json:"window_end"`
}

// HealthPartialOf summarizes one org's loaded state, read from one
// snapshot.
func HealthPartialOf(o *Org) HealthPartial {
	st := o.F.State()
	window := st.Window
	return HealthPartial{
		Org:         o.Name,
		Networks:    len(st.Dataset.Networks()),
		Months:      len(window),
		Cases:       st.Dataset.Len(),
		Tickets:     st.Tickets.Len(),
		WindowStart: window[0].String(),
		WindowEnd:   window[len(window)-1].String(),
	}
}

// FleetTotals aggregates the fleet in /v1/fleet/health.
type FleetTotals struct {
	Orgs     int `json:"orgs"`
	Networks int `json:"networks"`
	Cases    int `json:"cases"`
	Tickets  int `json:"tickets"`
	// WindowStart/WindowEnd span the union of the orgs' study windows.
	WindowStart string `json:"window_start"`
	WindowEnd   string `json:"window_end"`
}

// FleetHealth is the merged fleet health summary (/v1/fleet/health).
type FleetHealth struct {
	Status string          `json:"status"`
	Totals FleetTotals     `json:"totals"`
	Orgs   []HealthPartial `json:"orgs"`
}

// MergeHealth reduces per-org health partials: rows sorted by org name,
// totals summed, the fleet window spanning the orgs' windows ("YYYY-MM"
// compares correctly as a string). Like MergeRank it is a pure,
// order-insensitive function of the partials.
func MergeHealth(parts []HealthPartial) (*FleetHealth, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tenant: no health partials to merge")
	}
	out := &FleetHealth{
		Status: "ok",
		Orgs:   append([]HealthPartial(nil), parts...),
	}
	sort.Slice(out.Orgs, func(i, j int) bool { return out.Orgs[i].Org < out.Orgs[j].Org })
	out.Totals.Orgs = len(out.Orgs)
	for _, p := range out.Orgs {
		out.Totals.Networks += p.Networks
		out.Totals.Cases += p.Cases
		out.Totals.Tickets += p.Tickets
		if out.Totals.WindowStart == "" || p.WindowStart < out.Totals.WindowStart {
			out.Totals.WindowStart = p.WindowStart
		}
		if p.WindowEnd > out.Totals.WindowEnd {
			out.Totals.WindowEnd = p.WindowEnd
		}
	}
	return out, nil
}
