package ciscoios

import (
	"strings"
	"testing"

	"mpa/internal/confmodel"
)

// fullConfig builds a configuration exercising every stanza type with
// Cisco-appropriate option placement (VLAN membership on the interface).
func fullConfig() *confmodel.Config {
	c := confmodel.NewConfig("net01-sw-01")
	c.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "TenGigabitEthernet0/1").
		Set("description", "uplink to core").
		Set("address", "10.1.0.1/31").
		Set("mtu", "9216").
		Set("access-vlan", "100").
		Set("acl-in", "ACL-EDGE").
		Set("acl-out", "ACL-OUT").
		Set("lag-group", "5").
		Set("service-policy", "PM-CORE").
		Set("shutdown", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "100").
		Set("vlan-id", "100").Set("description", "web-tier"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeACL, "ACL-EDGE").
		Set("rule:10", "permit tcp any any eq 443").
		Set("rule:20", "deny ip any any"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeACL, "ACL-OUT").
		Set("rule:10", "permit ip any any"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeBGP, "65001").
		Set("local-as", "65001").
		Set("neighbor:10.0.0.2", "65002").
		Set("neighbor-rm:10.0.0.2", "RM-EXPORT").
		Set("network:10.1.0.0/16", "true").
		Set("prefix-list:PL-CUST", "in").
		Set("route-map:RM-EXPORT", "static"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeOSPF, "10").
		Set("area", "0").
		Set("network:10.1.0.0/16", "0"))
	c.Upsert(confmodel.NewStanza(confmodel.TypePool, "WEB-FARM").
		Set("monitor", "http-8080").
		Set("member:10.2.0.1:80", "5").
		Set("member:10.2.0.2:80", "1"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeUser, "netops").
		Set("role", "15").Set("hash", "$1$abcd"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeSNMP, "global").
		Set("community", "s3cret").Set("host:10.9.0.1", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeNTP, "global").
		Set("server:10.9.0.2", "true").Set("server:10.9.0.3", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeLogging, "global").
		Set("level", "informational").Set("host:10.9.0.4", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeQoS, "PM-CORE").
		Set("class:voice", "30").Set("class:best-effort", "10"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeSflow, "global").
		Set("collector", "10.9.0.5").Set("rate", "4096"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeSTP, "global").
		Set("mode", "mst").Set("priority", "4096").Set("region", "R1"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeUDLD, "global").
		Set("enable", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeDHCPRelay, "VLAN100").
		Set("vlan", "100").Set("server:10.9.0.6", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypePrefixList, "PL-CUST").
		Set("rule:5", "permit 10.0.0.0/8").
		Set("rule:10", "deny 0.0.0.0/0"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeRouteMap, "RM-EXPORT").
		Set("entry:10", "permit match:PL-CUST"))
	return c
}

func TestRoundTripFullConfig(t *testing.T) {
	var d Dialect
	orig := fullConfig()
	text := d.Render(orig)
	parsed, err := d.Parse(text)
	if err != nil {
		t.Fatalf("Parse failed: %v\n%s", err, text)
	}
	if !orig.Equal(parsed) {
		for _, s := range orig.Stanzas() {
			p := parsed.Get(s.Type, s.Name)
			if p == nil {
				t.Errorf("stanza %s missing after round trip", s.Key())
				continue
			}
			if !s.Equal(p) {
				t.Errorf("stanza %s differs:\n  orig   %v\n  parsed %v", s.Key(), s.Options, p.Options)
			}
		}
		for _, s := range parsed.Stanzas() {
			if orig.Get(s.Type, s.Name) == nil {
				t.Errorf("spurious stanza %s after round trip", s.Key())
			}
		}
		t.Fatalf("round trip not equal; rendered:\n%s", text)
	}
}

func TestRenderDeterministic(t *testing.T) {
	var d Dialect
	if d.Render(fullConfig()) != d.Render(fullConfig()) {
		t.Fatal("Render is not deterministic")
	}
}

func TestRenderIOSSyntaxLandmarks(t *testing.T) {
	var d Dialect
	text := d.Render(fullConfig())
	for _, want := range []string{
		"hostname net01-sw-01",
		"interface TenGigabitEthernet0/1",
		" switchport access vlan 100",
		"ip access-list extended ACL-EDGE",
		" permit tcp any any eq 443",
		"router bgp 65001",
		" neighbor 10.0.0.2 remote-as 65002",
		"router ospf 10",
		" network 10.1.0.0/16 area 0",
		"snmp-server community s3cret ro",
		"spanning-tree mode mst",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered IOS config missing %q", want)
		}
	}
}

func TestVLANAssignmentTypedAsInterface(t *testing.T) {
	// The paper's quirk: on Cisco, assigning an interface to a VLAN edits
	// the interface stanza. Verify the rendered text places the option
	// inside the interface block.
	var d Dialect
	c := confmodel.NewConfig("sw1")
	c.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "Gi0/1").Set("access-vlan", "42"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "42").Set("vlan-id", "42"))
	text := d.Render(c)
	ifaceIdx := strings.Index(text, "interface Gi0/1")
	assignIdx := strings.Index(text, "switchport access vlan 42")
	bangAfterIface := strings.Index(text[ifaceIdx:], "!") + ifaceIdx
	if assignIdx < ifaceIdx || assignIdx > bangAfterIface {
		t.Error("VLAN assignment not inside interface stanza")
	}
}

func TestParseEmptyConfig(t *testing.T) {
	var d Dialect
	c, err := d.Parse("hostname lonely\n!\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Hostname != "lonely" || c.Len() != 0 {
		t.Errorf("parsed %q with %d stanzas", c.Hostname, c.Len())
	}
}

func TestParseErrors(t *testing.T) {
	var d Dialect
	cases := []struct{ name, text string }{
		{"unknown top-level", "frobnicate the network\n"},
		{"option outside stanza", " ip address 10.0.0.1/24\n"},
		{"unknown interface option", "interface Gi0/1\n boggle 7\n"},
		{"unknown bgp option", "router bgp 1\n neighbor\n"},
	}
	for _, c := range cases {
		if _, err := d.Parse(c.text); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("%s: error is %T, want *ParseError", c.name, err)
		}
	}
}

func TestParseErrorHasLineNumber(t *testing.T) {
	var d Dialect
	_, err := d.Parse("hostname x\ninterface Gi0/1\n bad option here\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error = %v", err)
	}
	if pe.Line != 3 {
		t.Errorf("error line = %d, want 3", pe.Line)
	}
}

func TestRoundTripMinimalStanzas(t *testing.T) {
	// Stanzas with no options must survive the round trip too.
	var d Dialect
	c := confmodel.NewConfig("d")
	c.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "Gi0/2"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeQoS, "PM-EMPTY"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeRouteMap, "RM-EMPTY"))
	parsed, err := d.Parse(d.Render(c))
	if err != nil {
		t.Fatal(err)
	}
	if !c.Equal(parsed) {
		t.Errorf("minimal stanzas did not round trip:\n%s", d.Render(c))
	}
}

func TestDiffAfterEditIsTyped(t *testing.T) {
	// Editing one ACL rule then re-rendering and re-parsing must produce a
	// config that differs only in that ACL stanza.
	var d Dialect
	before := fullConfig()
	after := before.Clone()
	after.Get(confmodel.TypeACL, "ACL-EDGE").Set("rule:20", "permit udp any any eq 53")
	pBefore, err := d.Parse(d.Render(before))
	if err != nil {
		t.Fatal(err)
	}
	pAfter, err := d.Parse(d.Render(after))
	if err != nil {
		t.Fatal(err)
	}
	if pBefore.Equal(pAfter) {
		t.Fatal("edit lost in render/parse")
	}
	if !pBefore.Get(confmodel.TypeACL, "ACL-EDGE").Equal(before.Get(confmodel.TypeACL, "ACL-EDGE")) {
		t.Error("unedited parse mismatch")
	}
}

// TestParseNextOutOfOrderAndRepeatedHeaders parses, as the successor of
// a rendered snapshot, hand-ordered text: the same blocks in reverse key
// order, then a repeated interface header, then a block both texts end
// with. The reordered blocks all lie in the window; the repeated header's
// last block wins as in a full parse; the block after the window is
// shared from prev; and prev is left as it was. The result repeats a key,
// so it has no layout, and the snapshot after it is parsed in full.
func TestParseNextOutOfOrderAndRepeatedHeaders(t *testing.T) {
	var d Dialect
	acl := "ip access-list extended A\n 10 permit ip any any\n!\n"
	gi1 := "interface Gi0/1\n description one\n!\n"
	gi2 := "interface Gi0/2\n description two\n!\n"
	vlan := "vlan 10\n name ten\n!\n"
	tail := "vlan 20\n name twenty\n!\nend\n"
	sc := confmodel.NewScratch()
	prev, err := d.ParseScratch("hostname r1\n!\n"+acl+gi1+gi2+vlan+tail, sc)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Render(prev)
	next := "hostname r1\n!\n" + vlan + gi2 + gi1 + acl +
		"interface Gi0/2\n description again\n!\n" + tail
	got, err := d.ParseNext(prev, next, sc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := d.Parse(next)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("ParseNext differs from Parse:\n%s\nwant\n%s", d.Render(got), d.Render(want))
	}
	if s := got.Get(confmodel.TypeInterface, "Gi0/2"); s.Get("description") != "again" {
		t.Errorf("repeated header: description %q, want the last block's %q", s.Get("description"), "again")
	}
	if got.Get(confmodel.TypeVLAN, "20") != prev.Get(confmodel.TypeVLAN, "20") {
		t.Error("vlan 20, after the window, was parsed again instead of shared from prev")
	}
	if d.Render(prev) != before {
		t.Error("ParseNext modified its prev config")
	}
	again := strings.Replace(next, "name twenty", "name twenty-one", 1)
	if got, err = d.ParseNext(got, again, sc); err != nil {
		t.Fatal(err)
	}
	if want, err = d.Parse(again); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatalf("ParseNext after a repeated key differs from Parse:\n%s\nwant\n%s", d.Render(got), d.Render(want))
	}
}

// TestParseNextAfterPrevModified checks that a parsed config modified
// after parsing no longer vouches for its text: ParseNext against it
// must parse the whole successor rather than share the modified
// config's stanzas.
func TestParseNextAfterPrevModified(t *testing.T) {
	var d Dialect
	text := "hostname r1\n!\nvlan 10\n name ten\n!\nvlan 20\n name twenty\n!\nend\n"
	next := strings.Replace(text, "name twenty", "name twenty-one", 1)
	want, err := d.Parse(next)
	if err != nil {
		t.Fatal(err)
	}
	for name, modify := range map[string]func(*confmodel.Config){
		"upsert": func(c *confmodel.Config) { c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "99")) },
		"remove": func(c *confmodel.Config) { c.Remove(confmodel.TypeVLAN, "10") },
	} {
		sc := confmodel.NewScratch()
		prev, err := d.ParseScratch(text, sc)
		if err != nil {
			t.Fatal(err)
		}
		modify(prev)
		got, err := d.ParseNext(prev, next, sc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: ParseNext after modifying prev differs from Parse:\n%s\nwant\n%s", name, d.Render(got), d.Render(want))
		}
	}
}
