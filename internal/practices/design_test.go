package practices

import (
	"math"
	"sort"
	"testing"

	"mpa/internal/ciscoios"
	"mpa/internal/confmodel"
	"mpa/internal/junos"
	"mpa/internal/months"
	"mpa/internal/netmodel"
	"mpa/internal/osp"
	"mpa/internal/routing"
)

// TestDesignFactsEquivalence pins the engine's per-config design facts
// to a from-scratch evaluation: for every network-month of the
// 60-network, 8-month benchmark organization, the D4, D5 and D6 metrics
// the engine reports equal, bit for bit, those computed from the
// month-end configs by referenceDesignMetrics, the per-month scans the
// facts replace.
func TestDesignFactsEquivalence(t *testing.T) {
	o, window := factsOrg()
	analysis, err := NewEngine(o.Inventory, o.Archive).Analyze(window)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	forEachMonthEnd(t, o, window, func(nw *netmodel.Network, i int, configs []*confmodel.Config, mgmtOwner map[string]string) {
		want := Metrics{}
		referenceDesignMetrics(want, configs, mgmtOwner)
		got := analysis[nw.Name][i].Metrics
		for name, v := range want {
			if math.Float64bits(got[name]) != math.Float64bits(v) {
				t.Errorf("%s %s: %s = %v, want %v", nw.Name, window[i], name, got[name], v)
			}
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("no network-month checked")
	}
}

// TestRoutingFactsEquivalence pins D5 at the facts level: for every
// network-month of the benchmark organization, the BGP and OSPF
// summaries of the month-end configs' facts equal routing.Summarize over
// the configs themselves.
func TestRoutingFactsEquivalence(t *testing.T) {
	o, window := factsOrg()
	used := 0
	forEachMonthEnd(t, o, window, func(nw *netmodel.Network, i int, configs []*confmodel.Config, mgmtOwner map[string]string) {
		var bgp, ospf []routing.Process
		for _, c := range configs {
			f := newDeviceFacts(c, mgmtOwner)
			if f.bgp != nil {
				bgp = append(bgp, *f.bgp)
			}
			if f.ospf != nil {
				ospf = append(ospf, *f.ospf)
			}
		}
		for _, tc := range []struct {
			name  string
			proto routing.Protocol
			procs []routing.Process
		}{{"bgp", routing.BGP, bgp}, {"ospf", routing.OSPF, ospf}} {
			got := routing.SummarizeProcesses(tc.procs)
			want := routing.Summarize(configs, mgmtOwner, tc.proto)
			if got.Count != want.Count || math.Float64bits(got.AvgSize) != math.Float64bits(want.AvgSize) {
				t.Errorf("%s %s %s: facts summary %+v, want %+v", nw.Name, window[i], tc.name, got, want)
			}
			if want.Count > 0 {
				used++
			}
		}
	})
	if used == 0 {
		t.Fatal("fixture runs no BGP or OSPF")
	}
}

// factsOrg is the design-facts tests' organization: the 60-network,
// 8-month benchmark organization and its window.
func factsOrg() (*osp.OSP, []months.Month) {
	p := osp.Small(77)
	p.Start = months.StudyStart
	p.End = months.StudyStart.Add(7)
	return osp.Generate(p), p.Months()
}

// forEachMonthEnd calls fn for every network and month i of the window
// with the network's month-end configs (each device's last snapshot
// before the month ends, parsed afresh, in inventory order) and its
// management-IP owners.
func forEachMonthEnd(t *testing.T, o *osp.OSP, window []months.Month, fn func(nw *netmodel.Network, i int, configs []*confmodel.Config, mgmtOwner map[string]string)) {
	t.Helper()
	for _, nw := range o.Inventory.Networks {
		mgmtOwner := map[string]string{}
		for _, dev := range nw.Devices {
			mgmtOwner[dev.MgmtIP] = dev.Name
		}
		for i, m := range window {
			var configs []*confmodel.Config
			for _, dev := range nw.Devices {
				hist := o.Archive.Snapshots(dev.Name)
				k := sort.Search(len(hist), func(k int) bool { return !hist[k].Time.Before(m.End()) })
				if k == 0 {
					continue
				}
				var d confmodel.Dialect = junos.Dialect{}
				if dev.Vendor == netmodel.VendorCisco {
					d = ciscoios.Dialect{}
				}
				c, err := d.Parse(hist[k-1].Text)
				if err != nil {
					t.Fatal(err)
				}
				configs = append(configs, c)
			}
			fn(nw, i, configs, mgmtOwner)
		}
	}
}

// referenceDesignMetrics computes D4, D5 and D6 by scanning every
// config, as the engine did for every network-month before it kept
// per-config facts.
func referenceDesignMetrics(m Metrics, configs []*confmodel.Config, mgmtOwner map[string]string) {
	vlanIDs := map[string]bool{}
	lagGroups := 0
	var usesSTP, usesLAG, usesUDLD, usesDHCPR, usesVLAN bool
	intra := 0
	for _, c := range configs {
		intra += confmodel.IntraDeviceRefs(c)
		devLAGs := map[string]bool{}
		for _, s := range c.OfType(confmodel.TypeVLAN) {
			id := s.Get("vlan-id")
			if id == "" {
				id = s.Name
			}
			vlanIDs[id] = true
			usesVLAN = true
		}
		for _, s := range c.OfType(confmodel.TypeInterface) {
			if g := s.Get("lag-group"); g != "" {
				devLAGs[g] = true
				usesLAG = true
			}
		}
		lagGroups += len(devLAGs)
		if len(c.OfType(confmodel.TypeSTP)) > 0 {
			usesSTP = true
		}
		if s := c.Get(confmodel.TypeUDLD, "global"); s != nil && s.Get("enable") == "true" {
			usesUDLD = true
		}
		if len(c.OfType(confmodel.TypeDHCPRelay)) > 0 {
			usesDHCPR = true
		}
	}
	m[MetricVLANs] = float64(len(vlanIDs))
	m[MetricLAGGroups] = float64(lagGroups)
	l2 := 0
	for _, used := range []bool{usesVLAN, usesSTP, usesLAG, usesUDLD, usesDHCPR} {
		if used {
			l2++
		}
	}
	m[MetricL2Protocols] = float64(l2)
	bgp := routing.Summarize(configs, mgmtOwner, routing.BGP)
	ospf := routing.Summarize(configs, mgmtOwner, routing.OSPF)
	m[MetricBGPInstances] = float64(bgp.Count)
	m[MetricOSPFInstances] = float64(ospf.Count)
	m[MetricAvgBGPSize] = bgp.AvgSize
	m[MetricAvgOSPFSize] = ospf.AvgSize
	if len(configs) > 0 {
		m[MetricIntraComplexity] = float64(intra) / float64(len(configs))
		total := 0
		for _, n := range networkInterRefs(configs, mgmtOwner) {
			total += n
		}
		m[MetricInterComplexity] = float64(total) / float64(len(configs))
	}
}

// TestNetFactsHostnameCollision checks the facts path for configs that
// share a hostname: networkInterRefs keeps one count per hostname, and
// the summed facts must reproduce that, not add both.
func TestNetFactsHostnameCollision(t *testing.T) {
	mk := func(vlans ...string) *confmodel.Config {
		c := confmodel.NewConfig("twin")
		for _, v := range vlans {
			c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, v))
		}
		return c
	}
	configs := []*confmodel.Config{mk("10", "20"), mk("10"), mk("20")}
	configs[2].Hostname = "other"
	mgmtOwner := map[string]string{}
	nf := newNetFacts()
	devs := make([]*deviceFacts, len(configs))
	for i, c := range configs {
		devs[i] = newDeviceFacts(c, mgmtOwner)
		nf.add(devs[i], 1)
	}
	want := 0
	for _, n := range networkInterRefs(configs, mgmtOwner) {
		want += n
	}
	if got := nf.interRefs(devs); got != want {
		t.Errorf("interRefs = %d, want %d (networkInterRefs summed)", got, want)
	}
	nf.add(devs[1], -1)
	if got, want := nf.interRefs([]*deviceFacts{devs[0], devs[2]}), 2; got != want {
		t.Errorf("after removing a twin: interRefs = %d, want %d", got, want)
	}
}
