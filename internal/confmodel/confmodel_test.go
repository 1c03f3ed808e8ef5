package confmodel

import (
	"testing"
)

func sampleConfig() *Config {
	c := NewConfig("dev1")
	c.Upsert(NewStanza(TypeVLAN, "100").Set("vlan-id", "100").Set("description", "web"))
	c.Upsert(NewStanza(TypeACL, "ACL-WEB").Set("rule:10", "permit tcp any any eq 443"))
	c.Upsert(NewStanza(TypeInterface, "eth0").
		Set("access-vlan", "100").Set("acl-in", "ACL-WEB").Set("address", "10.0.0.1/24"))
	return c
}

func TestTypeStringRoundTrip(t *testing.T) {
	// Every type but TypeOther has a name of its own, so a rendered type
	// identifies the type.
	byName := map[string]Type{}
	for ty := Type(0); ty < Type(NumTypes); ty++ {
		if ty == TypeOther {
			continue
		}
		name := ty.String()
		if name == TypeOther.String() {
			t.Errorf("type %d renders as the fallback name %q", ty, name)
		}
		if prev, dup := byName[name]; dup {
			t.Errorf("types %d and %d share the name %q", prev, ty, name)
		}
		byName[name] = ty
	}
}

func TestTypeIsRouter(t *testing.T) {
	if !TypeBGP.IsRouter() || !TypeOSPF.IsRouter() {
		t.Error("bgp/ospf should be router types")
	}
	if TypeInterface.IsRouter() || TypeACL.IsRouter() {
		t.Error("interface/acl should not be router types")
	}
}

func TestStanzaSetGetDelete(t *testing.T) {
	s := NewStanza(TypeInterface, "eth0")
	s.Set("mtu", "9000")
	if got := s.Get("mtu"); got != "9000" {
		t.Errorf("Get = %q", got)
	}
	s.Delete("mtu")
	if got := s.Get("mtu"); got != "" {
		t.Errorf("after Delete, Get = %q", got)
	}
}

func TestStanzaSetOnNilOptions(t *testing.T) {
	s := &Stanza{Type: TypeVLAN, Name: "5"}
	s.Set("vlan-id", "5")
	if s.Get("vlan-id") != "5" {
		t.Error("Set on zero-value stanza failed")
	}
}

func TestStanzaCloneIsDeep(t *testing.T) {
	s := NewStanza(TypeACL, "A").Set("rule:10", "permit ip any any")
	c := s.Clone()
	c.Set("rule:10", "deny ip any any")
	if s.Get("rule:10") != "permit ip any any" {
		t.Error("Clone shares option map")
	}
	if !s.Equal(s.Clone()) {
		t.Error("clone not equal to original")
	}
}

func TestStanzaEqual(t *testing.T) {
	a := NewStanza(TypeVLAN, "1").Set("vlan-id", "1")
	b := NewStanza(TypeVLAN, "1").Set("vlan-id", "1")
	if !a.Equal(b) {
		t.Error("identical stanzas not equal")
	}
	b.Set("vlan-id", "2")
	if a.Equal(b) {
		t.Error("different option values equal")
	}
	c := NewStanza(TypeVLAN, "2").Set("vlan-id", "1")
	if a.Equal(c) {
		t.Error("different names equal")
	}
	d := NewStanza(TypeInterface, "1").Set("vlan-id", "1")
	if a.Equal(d) {
		t.Error("different types equal")
	}
	e := NewStanza(TypeVLAN, "1").Set("vlan-id", "1").Set("x", "y")
	if a.Equal(e) {
		t.Error("extra option equal")
	}
}

func TestOptionsWithPrefix(t *testing.T) {
	s := NewStanza(TypeBGP, "65001").
		Set("neighbor:10.0.0.1", "65002").
		Set("neighbor:10.0.0.2", "65003").
		Set("local-as", "65001")
	m := s.OptionsWithPrefix("neighbor:")
	if len(m) != 2 || m["10.0.0.1"] != "65002" || m["10.0.0.2"] != "65003" {
		t.Errorf("OptionsWithPrefix = %v", m)
	}
}

func TestConfigUpsertGetRemove(t *testing.T) {
	c := sampleConfig()
	if c.Len() != 3 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Get(TypeVLAN, "100"); got == nil || got.Get("description") != "web" {
		t.Errorf("Get vlan = %+v", got)
	}
	if c.Get(TypeVLAN, "999") != nil {
		t.Error("Get of missing stanza should be nil")
	}
	if !c.Remove(TypeVLAN, "100") {
		t.Error("Remove existing returned false")
	}
	if c.Remove(TypeVLAN, "100") {
		t.Error("Remove missing returned true")
	}
	if c.Len() != 2 {
		t.Errorf("Len after remove = %d", c.Len())
	}
}

func TestConfigStanzasDeterministicOrder(t *testing.T) {
	c := sampleConfig()
	first := c.Stanzas()
	second := c.Stanzas()
	for i := range first {
		if first[i].Key() != second[i].Key() {
			t.Fatal("Stanzas order not deterministic")
		}
	}
}

func TestConfigOfType(t *testing.T) {
	c := sampleConfig()
	ifaces := c.OfType(TypeInterface)
	if len(ifaces) != 1 || ifaces[0].Name != "eth0" {
		t.Errorf("OfType(interface) = %v", ifaces)
	}
	if got := c.OfType(TypeBGP); len(got) != 0 {
		t.Errorf("OfType(bgp) = %v", got)
	}
}

func TestConfigCloneEqual(t *testing.T) {
	c := sampleConfig()
	clone := c.Clone()
	if !c.Equal(clone) {
		t.Fatal("clone not equal")
	}
	clone.Get(TypeInterface, "eth0").Set("mtu", "1500")
	if c.Equal(clone) {
		t.Error("mutating clone affected equality — shallow copy?")
	}
	if c.Get(TypeInterface, "eth0").Get("mtu") != "" {
		t.Error("clone shares stanza storage")
	}
}

func TestConfigFingerprint(t *testing.T) {
	a, b := sampleConfig(), sampleConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal configs have different fingerprints")
	}
	b.Get(TypeVLAN, "100").Set("description", "db")
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("differing configs share a fingerprint")
	}
}

func TestIntraDeviceRefs(t *testing.T) {
	c := sampleConfig()
	// interface references ACL-WEB and vlan 100: 2 intra refs.
	if got := IntraDeviceRefs(c); got != 2 {
		t.Errorf("IntraDeviceRefs = %d, want 2", got)
	}
	// Dangling reference does not count.
	c.Get(TypeInterface, "eth0").Set("acl-in", "NO-SUCH-ACL")
	if got := IntraDeviceRefs(c); got != 1 {
		t.Errorf("IntraDeviceRefs with dangling acl = %d, want 1", got)
	}
}

func TestIntraDeviceRefsRouteMapAndPrefixList(t *testing.T) {
	c := NewConfig("r1")
	c.Upsert(NewStanza(TypePrefixList, "PL1").Set("rule:10", "permit 10.0.0.0/8"))
	c.Upsert(NewStanza(TypeRouteMap, "RM1").Set("entry:10", "permit match:PL1"))
	c.Upsert(NewStanza(TypeBGP, "65001").
		Set("route-map:RM1", "static").Set("prefix-list:PL1", "in"))
	// bgp->RM1, bgp->PL1, RM1->PL1: 3 refs.
	if got := IntraDeviceRefs(c); got != 3 {
		t.Errorf("IntraDeviceRefs = %d, want 3", got)
	}
}

func TestIntraDeviceRefsJuniperMembership(t *testing.T) {
	c := NewConfig("j1")
	c.Upsert(NewStanza(TypeInterface, "xe-0/0/1"))
	c.Upsert(NewStanza(TypeVLAN, "web").Set("vlan-id", "100").Set("member:xe-0/0/1", "true"))
	if got := IntraDeviceRefs(c); got != 1 {
		t.Errorf("IntraDeviceRefs = %d, want 1", got)
	}
}

func TestInterDeviceRefsBGP(t *testing.T) {
	a := NewConfig("a")
	a.Upsert(NewStanza(TypeBGP, "65001").Set("neighbor:10.0.0.2", "65002"))
	b := NewConfig("b")
	b.Upsert(NewStanza(TypeBGP, "65002").Set("neighbor:10.0.0.1", "65001"))
	owner := map[string]string{"10.0.0.1": "a", "10.0.0.2": "b"}
	peers := []*Config{a, b}
	if got := InterDeviceRefs(a, peers, owner); got != 1 {
		t.Errorf("InterDeviceRefs(a) = %d, want 1", got)
	}
	if got := InterDeviceRefs(b, peers, owner); got != 1 {
		t.Errorf("InterDeviceRefs(b) = %d, want 1", got)
	}
}

func TestInterDeviceRefsSelfNeighborIgnored(t *testing.T) {
	a := NewConfig("a")
	a.Upsert(NewStanza(TypeBGP, "65001").Set("neighbor:10.0.0.1", "65001"))
	owner := map[string]string{"10.0.0.1": "a"}
	if got := InterDeviceRefs(a, []*Config{a}, owner); got != 0 {
		t.Errorf("self-reference counted: %d", got)
	}
}

func TestInterDeviceRefsSharedVLAN(t *testing.T) {
	a := NewConfig("a")
	a.Upsert(NewStanza(TypeVLAN, "100").Set("vlan-id", "100"))
	b := NewConfig("b")
	b.Upsert(NewStanza(TypeVLAN, "web").Set("vlan-id", "100"))
	c := NewConfig("c")
	c.Upsert(NewStanza(TypeVLAN, "200").Set("vlan-id", "200"))
	peers := []*Config{a, b, c}
	if got := InterDeviceRefs(a, peers, nil); got != 1 {
		t.Errorf("a shares vlan with b only: got %d", got)
	}
	if got := InterDeviceRefs(c, peers, nil); got != 0 {
		t.Errorf("c shares nothing: got %d", got)
	}
}

func TestInterDeviceRefsSharedOSPFArea(t *testing.T) {
	a := NewConfig("a")
	a.Upsert(NewStanza(TypeOSPF, "1").Set("area", "0"))
	b := NewConfig("b")
	b.Upsert(NewStanza(TypeOSPF, "1").Set("area", "0"))
	c := NewConfig("c")
	c.Upsert(NewStanza(TypeOSPF, "1").Set("area", "7"))
	peers := []*Config{a, b, c}
	if got := InterDeviceRefs(a, peers, nil); got != 1 {
		t.Errorf("a shares area 0 with b only: got %d", got)
	}
}
