package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"sort"

	"mpa"
	"mpa/internal/ingest"
	"mpa/internal/osp"
)

// org is one organization's inputs, generated off the clock: the
// substrates its daemon is built from and the wire bodies of the monthly
// updates that follow its window. The updates are
// the generator's own continuation of the organization, sliced one month
// at a time exactly as mpa.NextMonths does (generation is prefix-stable).
type org struct {
	name       string
	inv        *mpa.Inventory
	arch       *mpa.Archive
	log        *mpa.TicketLog
	start, end mpa.Month
	networks   []string
	updates    [][]byte          // POST /v1/ingest bodies, one per month after end
	touched    []map[string]bool // networks each update touches
	full       *osp.OSP          // the organization through the last update month
}

func genOrg(name string, seed uint64, networks, months, extra int) (*org, error) {
	p := osp.Small(seed)
	p.Networks = networks
	end := p.Start.Add(months - 1)
	p.End = end.Add(extra)
	o := osp.Generate(p)
	g := &org{name: name, inv: o.Inventory, start: p.Start, end: end, full: o}
	g.arch, g.log = ingest.Truncate(o.Archive, o.Tickets, end)
	netOf := map[string]string{}
	for _, nw := range o.Inventory.Networks {
		g.networks = append(g.networks, nw.Name)
		for _, d := range nw.Devices {
			netOf[d.Name] = nw.Name
		}
	}
	sort.Strings(g.networks)
	for m := end.Next(); !p.End.Before(m); m = m.Next() {
		u := ingest.SliceMonth(o.Archive, o.Tickets, m)
		b, err := json.Marshal(u)
		if err != nil {
			return nil, fmt.Errorf("encode update %s: %w", m, err)
		}
		touched := map[string]bool{}
		for _, s := range u.Snapshots {
			touched[netOf[s.Device]] = true
		}
		for _, t := range u.Tickets {
			touched[t.Network] = true
		}
		g.updates = append(g.updates, b)
		g.touched = append(g.touched, touched)
	}
	return g, nil
}

// request is one HTTP request of a workload with the check its response
// must pass. A request whose check fails counts as a failed operation.
type request struct {
	ep     string // endpoint name, for spans
	method string
	path   string
	org    string // sent as the X-MPA-Org header when set
	body   []byte
	check  func([]byte) error
}

// orgPath scopes a /v1 path to an org with the path segment.
func orgPath(org, p string) string { return "/v1/orgs/" + org + p[len("/v1"):] }

// get builds a GET addressed by path segment, or by header when header.
func get(ep, org, p string, header bool, check func([]byte) error) *request {
	q := &request{ep: ep, method: "GET", path: orgPath(org, p), check: check}
	if header {
		q.path, q.org = p, org
	}
	return q
}

func netPath(ep, network string, m mpa.Month) string {
	return "/v1/" + ep + "?network=" + url.QueryEscape(network) + "&month=" + m.String()
}

// validJSON is the check of a response with no fixed expected value.
func validJSON(b []byte) error {
	if !json.Valid(b) {
		return fmt.Errorf("undecodable body %.80q", b)
	}
	return nil
}

// equalTo checks a response against previously answered bytes.
func equalTo(want []byte) func([]byte) error {
	return func(b []byte) error {
		if !bytes.Equal(b, want) {
			return fmt.Errorf("answer changed: got %.80q, want %.80q", b, want)
		}
		return nil
	}
}

// reference computes expected answers off the clock on a framework built
// directly over the same substrates the daemon is built from.
type reference struct {
	f    *mpa.Framework
	rank []mpa.PracticeDependence
}

func newReference(g *org, end mpa.Month) (*reference, error) {
	arch, log := g.arch, g.log
	if end != g.end {
		arch, log = ingest.Truncate(g.full.Archive, g.full.Tickets, end)
	}
	f, err := mpa.NewCached(g.inv, arch, log, g.start, end, mpa.CacheConfig{Enabled: true})
	if err != nil {
		return nil, fmt.Errorf("reference build of %s through %s: %w", g.name, end, err)
	}
	return &reference{f: f, rank: f.RankPractices()}, nil
}

func (rf *reference) top(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = rf.rank[i].Metric
	}
	return out
}

func (rf *reference) checkRank() func([]byte) error {
	want := rf.rank
	return func(b []byte) error {
		var got []struct {
			Metric string  `json:"metric"`
			MI     float64 `json:"mi_bits"`
		}
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("rank: %w", err)
		}
		if len(got) != len(want) {
			return fmt.Errorf("rank: %d entries, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].Metric != want[i].Metric || got[i].MI != want[i].MI {
				return fmt.Errorf("rank %d: got %s %v, want %s %v", i, got[i].Metric, got[i].MI, want[i].Metric, want[i].MI)
			}
		}
		return nil
	}
}

func (rf *reference) checkNetwork(network string, m mpa.Month) (func([]byte) error, error) {
	want, err := rf.f.NetworkHealthCached(network, m)
	if err != nil {
		return nil, err
	}
	return func(b []byte) error {
		var got mpa.NetworkHealth
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("network: %w", err)
		}
		if got != *want {
			return fmt.Errorf("network: got %+v, want %+v", got, *want)
		}
		return nil
	}, nil
}

func (rf *reference) checkPredict(network string, m mpa.Month) (func([]byte) error, error) {
	want, err := rf.f.PredictNetworkMonth(network, m)
	if err != nil {
		return nil, err
	}
	return func(b []byte) error {
		var got struct {
			Network string `json:"network"`
			Tickets int    `json:"tickets"`
			P2      int    `json:"predicted_class2"`
			P5      int    `json:"predicted_class5"`
		}
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		if got.Network != want.Network || got.Tickets != want.Tickets || got.P2 != want.Predicted2 || got.P5 != want.Predicted5 {
			return fmt.Errorf("predict: got %+v, want %+v", got, *want)
		}
		return nil
	}, nil
}

func (rf *reference) checkCausal(practice string) (func([]byte) error, error) {
	want, err := rf.f.AnalyzeCausal(practice)
	if err != nil {
		return nil, err
	}
	return func(b []byte) error {
		var got struct {
			Treatment string `json:"treatment"`
			Points    []struct {
				Comparison string  `json:"comparison"`
				Pairs      int     `json:"pairs"`
				PValue     float64 `json:"p_value"`
				Causal     bool    `json:"causal"`
			} `json:"points"`
		}
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("causal: %w", err)
		}
		if got.Treatment != want.Treatment || len(got.Points) != len(want.Points) {
			return fmt.Errorf("causal %s: shape differs from reference", practice)
		}
		for i, p := range want.Points {
			g := got.Points[i]
			if g.Comparison != p.Comparison || g.Pairs != p.Pairs || g.PValue != p.PValue || g.Causal != p.Causal {
				return fmt.Errorf("causal %s point %d: got %+v, want %+v", practice, i, g, p)
			}
		}
		return nil
	}, nil
}

// checkReport compares the served digest with Report.Digest of an
// experiments.Run on the reference framework.
func (rf *reference) checkReport(id string) (func([]byte) error, error) {
	rep, ok := rf.f.Experiment(id)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %s", id)
	}
	want := rep.Digest()
	return func(b []byte) error {
		var got struct {
			ID     string `json:"id"`
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("report: %w", err)
		}
		if got.ID != id || got.Digest != want {
			return fmt.Errorf("report %s: digest %s, want %s", id, got.Digest, want)
		}
		return nil
	}, nil
}

// checkIngest checks a POST /v1/ingest answer extended the window to m.
func checkIngest(m mpa.Month) func([]byte) error {
	return func(b []byte) error {
		var got struct {
			Month     string `json:"month"`
			NewMonth  bool   `json:"new_month"`
			WindowEnd string `json:"window_end"`
		}
		if err := json.Unmarshal(b, &got); err != nil {
			return fmt.Errorf("ingest: %w", err)
		}
		if got.Month != m.String() || !got.NewMonth || got.WindowEnd != m.String() {
			return fmt.Errorf("ingest: got %+v, want window extended to %s", got, m)
		}
		return nil
	}
}

// refreshSet is the set of answers a dashboard re-reads after a month
// arrives: the ranking, causal analyses of the given practices, one
// prediction for the new month, and the reports. With rf nil the
// answers are only checked to decode (no reference for that month).
func refreshSet(rf *reference, g *org, practices []string, network string, m mpa.Month, reports []string) ([]*request, error) {
	check := func(c func() (func([]byte) error, error)) (func([]byte) error, error) {
		if rf == nil {
			return validJSON, nil
		}
		return c()
	}
	var out []*request
	rank, _ := check(func() (func([]byte) error, error) { return rf.checkRank(), nil })
	out = append(out, get("rank", g.name, "/v1/rank", false, rank))
	for _, p := range practices {
		c, err := check(func() (func([]byte) error, error) { return rf.checkCausal(p) })
		if err != nil {
			return nil, err
		}
		out = append(out, get("causal", g.name, "/v1/causal?practice="+url.QueryEscape(p), false, c))
	}
	c, err := check(func() (func([]byte) error, error) { return rf.checkPredict(network, m) })
	if err != nil {
		return nil, err
	}
	out = append(out, get("predict", g.name, netPath("predict", network, m), false, c))
	for _, id := range reports {
		c, err := check(func() (func([]byte) error, error) { return rf.checkReport(id) })
		if err != nil {
			return nil, err
		}
		out = append(out, get("report", g.name, "/v1/report/"+id, false, c))
	}
	return out, nil
}

// postUpdate builds the POST of g's i-th update.
func postUpdate(g *org, i int) *request {
	m := g.end.Add(i + 1)
	return &request{ep: "ingest", method: "POST", path: orgPath(g.name, "/v1/ingest"), body: g.updates[i], check: checkIngest(m)}
}
