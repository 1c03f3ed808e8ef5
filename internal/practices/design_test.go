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
)

// TestDesignFactsEquivalence pins the engine's per-config design facts
// to a from-scratch evaluation: for every network-month of the
// 60-network, 8-month benchmark organization, the D4 and D6 metrics the
// engine reports equal, bit for bit, those computed from the month-end
// configs (each device's last snapshot before the month ends, parsed
// afresh) by referenceDesignMetrics, the per-month scans the facts
// replace.
func TestDesignFactsEquivalence(t *testing.T) {
	p := osp.Small(77)
	p.Start = months.StudyStart
	p.End = months.StudyStart.Add(7)
	o := osp.Generate(p)
	window := p.Months()
	analysis, err := NewEngine(o.Inventory, o.Archive).Analyze(window)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
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
			want := Metrics{}
			referenceDesignMetrics(want, configs, mgmtOwner)
			got := analysis[nw.Name][i].Metrics
			for name, v := range want {
				if math.Float64bits(got[name]) != math.Float64bits(v) {
					t.Errorf("%s %s: %s = %v, want %v", nw.Name, m, name, got[name], v)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no network-month checked")
	}
}

// referenceDesignMetrics computes D4 and D6 by scanning every config, as
// the engine did for every network-month before it kept per-config
// facts.
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
	if len(configs) > 0 {
		m[MetricIntraComplexity] = float64(intra) / float64(len(configs))
		total := 0
		for _, n := range confmodel.NetworkInterRefs(configs, mgmtOwner) {
			total += n
		}
		m[MetricInterComplexity] = float64(total) / float64(len(configs))
	}
}

// TestNetFactsHostnameCollision checks the fallback for configs that
// share a hostname: confmodel.NetworkInterRefs keeps one count per
// hostname, and the summed facts must reproduce that, not add both.
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
	for _, c := range configs {
		nf.add(newDeviceFacts(c, mgmtOwner), 1)
	}
	want := 0
	for _, n := range confmodel.NetworkInterRefs(configs, mgmtOwner) {
		want += n
	}
	if got := nf.interRefs(configs, mgmtOwner); got != want {
		t.Errorf("interRefs = %d, want %d (NetworkInterRefs summed)", got, want)
	}
	nf.add(newDeviceFacts(configs[1], mgmtOwner), -1)
	if got, want := nf.interRefs([]*confmodel.Config{configs[0], configs[2]}, mgmtOwner), 2; got != want {
		t.Errorf("after removing a twin: interRefs = %d, want %d", got, want)
	}
}
