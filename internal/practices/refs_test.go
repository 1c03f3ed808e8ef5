package practices

import (
	"testing"

	"mpa/internal/confmodel"
)

// networkInterRefs is the config-based oracle of netFacts.interRefs: the
// inter-device reference count of every device of a network, keyed by
// hostname (so the last config with a hostname wins), computed in time
// linear in the total number of stanzas via inverted indexes. It equals
// confmodel's per-device InterDeviceRefs on a network whose VLAN ids and
// OSPF areas are unique per device.
func networkInterRefs(configs []*confmodel.Config, mgmtIPOwner map[string]string) map[string]int {
	refs := make(map[string]int, len(configs))

	// Inverted indexes: how many devices carry each VLAN id / OSPF area.
	vlanCount := map[string]int{}
	areaCount := map[string]int{}
	// Per-device distinct keys (a device may declare an area twice).
	type devKeys struct {
		vlans map[string]bool
		areas map[string]bool
	}
	keys := make([]devKeys, len(configs))
	for i, c := range configs {
		dk := devKeys{vlans: map[string]bool{}, areas: map[string]bool{}}
		for _, s := range c.OfType(confmodel.TypeVLAN) {
			id := s.Get("vlan-id")
			if id == "" {
				id = s.Name
			}
			dk.vlans[id] = true
		}
		for _, s := range c.OfType(confmodel.TypeOSPF) {
			if area := s.Get("area"); area != "" {
				dk.areas[area] = true
			}
		}
		keys[i] = dk
		for v := range dk.vlans {
			vlanCount[v]++
		}
		for a := range dk.areas {
			areaCount[a]++
		}
	}

	for i, c := range configs {
		n := 0
		// BGP neighbors resolving to peer devices.
		for _, s := range c.OfType(confmodel.TypeBGP) {
			for ip := range s.OptionsWithPrefix("neighbor:") {
				if owner, ok := mgmtIPOwner[ip]; ok && owner != c.Hostname {
					n++
				}
			}
		}
		// One reference per other device carrying each of this device's
		// VLAN ids and OSPF areas.
		for v := range keys[i].vlans {
			n += vlanCount[v] - 1
		}
		for a := range keys[i].areas {
			n += areaCount[a] - 1
		}
		refs[c.Hostname] = n
	}
	return refs
}

// factsInterRefs sums configs' facts and returns their inter-device
// reference count, as the engine computes it.
func factsInterRefs(configs []*confmodel.Config, mgmtOwner map[string]string) int {
	nf := newNetFacts()
	devs := make([]*deviceFacts, len(configs))
	for i, c := range configs {
		devs[i] = newDeviceFacts(c, mgmtOwner)
		nf.add(devs[i], 1)
	}
	return nf.interRefs(devs)
}

func TestNetworkInterRefsMatchesPerDevice(t *testing.T) {
	// The network-level oracle and the facts path must give each device
	// the count confmodel.InterDeviceRefs defines: a and b peer over BGP
	// and share VLAN 100 and area 0 (3 each); c shares nothing.
	a := confmodel.NewConfig("a")
	a.Upsert(confmodel.NewStanza(confmodel.TypeBGP, "65001").Set("neighbor:10.0.0.2", "65001"))
	a.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "100").Set("vlan-id", "100"))
	a.Upsert(confmodel.NewStanza(confmodel.TypeOSPF, "1").Set("area", "0"))
	b := confmodel.NewConfig("b")
	b.Upsert(confmodel.NewStanza(confmodel.TypeBGP, "65001").Set("neighbor:10.0.0.1", "65001"))
	b.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "v100").Set("vlan-id", "100"))
	b.Upsert(confmodel.NewStanza(confmodel.TypeOSPF, "1").Set("area", "0"))
	c := confmodel.NewConfig("c")
	c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "200").Set("vlan-id", "200"))
	peers := []*confmodel.Config{a, b, c}
	owner := map[string]string{"10.0.0.1": "a", "10.0.0.2": "b", "10.0.0.3": "c"}

	want := map[string]int{"a": 3, "b": 3, "c": 0}
	bulk := networkInterRefs(peers, owner)
	for host, n := range want {
		if got := bulk[host]; got != n {
			t.Errorf("%s: network-level %d != per-device %d", host, got, n)
		}
	}
	if got := factsInterRefs(peers, owner); got != 6 {
		t.Errorf("facts interRefs = %d, want 6", got)
	}
}

func TestNetworkInterRefsEmpty(t *testing.T) {
	if got := networkInterRefs(nil, nil); len(got) != 0 {
		t.Errorf("empty network refs = %v", got)
	}
	if got := factsInterRefs(nil, nil); got != 0 {
		t.Errorf("empty network facts refs = %d", got)
	}
	lone := confmodel.NewConfig("solo")
	lone.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "1").Set("vlan-id", "1"))
	lones := []*confmodel.Config{lone}
	if refs := networkInterRefs(lones, nil); refs["solo"] != 0 {
		t.Errorf("lone device refs = %d", refs["solo"])
	}
	if got := factsInterRefs(lones, nil); got != 0 {
		t.Errorf("lone device facts refs = %d", got)
	}
}

func TestNetworkInterRefsExternalNeighborIgnored(t *testing.T) {
	a := confmodel.NewConfig("a")
	a.Upsert(confmodel.NewStanza(confmodel.TypeBGP, "65001").Set("neighbor:192.0.2.1", "64999"))
	configs := []*confmodel.Config{a}
	owner := map[string]string{"10.0.0.1": "a"}
	if refs := networkInterRefs(configs, owner); refs["a"] != 0 {
		t.Errorf("external neighbor counted: %d", refs["a"])
	}
	if got := factsInterRefs(configs, owner); got != 0 {
		t.Errorf("external neighbor counted by facts: %d", got)
	}
}
