package junos

import (
	"strings"
	"testing"

	"mpa/internal/confmodel"
)

// fullConfig builds a configuration exercising every stanza type with
// Juniper-appropriate option placement (VLAN membership under the vlan).
func fullConfig() *confmodel.Config {
	c := confmodel.NewConfig("net02-fw-01")
	c.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "xe-0/0/1").
		Set("description", "uplink to agg").
		Set("address", "10.2.0.1/31").
		Set("mtu", "9192").
		Set("acl-in", "EDGE-IN").
		Set("acl-out", "EDGE-OUT").
		Set("lag-group", "3").
		Set("service-policy", "SM-CORE").
		Set("shutdown", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "web").
		Set("vlan-id", "100").
		Set("description", "web-tier").
		Set("member:xe-0/0/1", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeACL, "EDGE-IN").
		Set("rule:10", "permit tcp any any eq 443").
		Set("rule:20", "deny ip any any"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeACL, "EDGE-OUT").
		Set("rule:10", "permit ip any any"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeBGP, "65002").
		Set("local-as", "65002").
		Set("neighbor:10.0.0.1", "65001").
		Set("neighbor-rm:10.0.0.1", "PS-EXPORT").
		Set("network:10.2.0.0/16", "true").
		Set("prefix-list:PL-NET", "in").
		Set("route-map:PS-EXPORT", "static"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeOSPF, "1").
		Set("area", "0").
		Set("network:10.2.0.0/16", "0"))
	c.Upsert(confmodel.NewStanza(confmodel.TypePool, "APP-POOL").
		Set("monitor", "tcp-443").
		Set("member:10.3.0.1:443", "2"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeUser, "netops").
		Set("role", "super-user").Set("hash", "$6$zzz"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeSNMP, "global").
		Set("community", "s3cret").Set("host:10.9.0.1", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeNTP, "global").
		Set("server:10.9.0.2", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeLogging, "global").
		Set("level", "info").Set("host:10.9.0.4", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeQoS, "SM-CORE").
		Set("class:voice", "30"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeSflow, "global").
		Set("collector", "10.9.0.5").Set("rate", "2048"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeSTP, "global").
		Set("mode", "mstp").Set("priority", "8192").Set("region", "R2"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeUDLD, "global").
		Set("enable", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeDHCPRelay, "VLAN100").
		Set("vlan", "100").Set("server:10.9.0.6", "true"))
	c.Upsert(confmodel.NewStanza(confmodel.TypePrefixList, "PL-NET").
		Set("rule:5", "permit 10.0.0.0/8"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeRouteMap, "PS-EXPORT").
		Set("entry:10", "permit match:PL-NET"))
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
		t.Fatalf("round trip not equal; rendered:\n%s", text)
	}
}

func TestRenderDeterministic(t *testing.T) {
	var d Dialect
	if d.Render(fullConfig()) != d.Render(fullConfig()) {
		t.Fatal("Render is not deterministic")
	}
}

func TestRenderJunosSyntaxLandmarks(t *testing.T) {
	var d Dialect
	text := d.Render(fullConfig())
	for _, want := range []string{
		"host-name net02-fw-01;",
		"interfaces xe-0/0/1 {",
		"firewall filter EDGE-IN {",
		"protocols bgp 65002 {",
		"neighbor 10.0.0.1 peer-as 65001;",
		"vlans web {",
		"vlan-id 100;",
		"interface xe-0/0/1;",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered JunOS config missing %q", want)
		}
	}
}

func TestVLANMembershipTypedAsVLAN(t *testing.T) {
	// The paper's quirk: on Juniper, assigning an interface to a VLAN
	// edits the vlans stanza, not the interface stanza.
	var d Dialect
	c := confmodel.NewConfig("j1")
	c.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "xe-0/0/5"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "app").
		Set("vlan-id", "42").Set("member:xe-0/0/5", "true"))
	text := d.Render(c)
	vlanIdx := strings.Index(text, "vlans app {")
	memberIdx := strings.Index(text, "interface xe-0/0/5;")
	closeIdx := strings.Index(text[vlanIdx:], "}") + vlanIdx
	if memberIdx < vlanIdx || memberIdx > closeIdx {
		t.Error("VLAN membership not inside vlans stanza")
	}
	// Round trip must preserve the member option on the vlan stanza.
	parsed, err := d.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Get(confmodel.TypeVLAN, "app").Get("member:xe-0/0/5") != "true" {
		t.Error("membership lost in round trip")
	}
}

func TestParseErrors(t *testing.T) {
	var d Dialect
	cases := []struct{ name, text string }{
		{"unknown block", "mystery block {\n}\n"},
		{"unbalanced close", "}\n"},
		{"option outside block", "community foo;\n"},
		{"nested block", "snmp {\nsnmp {\n}\n}\n"},
		{"unterminated block", "snmp {\ncommunity foo;\n"},
		{"unknown option", "snmp {\nfrobnicate;\n}\n"},
		{"line without terminator", "snmp {\ncommunity foo\n}\n"},
	}
	for _, c := range cases {
		if _, err := d.Parse(c.text); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	var d Dialect
	c, err := d.Parse("host-name solo;\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Hostname != "solo" || c.Len() != 0 {
		t.Errorf("parsed %q with %d stanzas", c.Hostname, c.Len())
	}
}

func TestQuotedDescriptionsSurvive(t *testing.T) {
	var d Dialect
	c := confmodel.NewConfig("q")
	c.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "xe-0/0/9").
		Set("description", "link to row 7 rack 3"))
	parsed, err := d.Parse(d.Render(c))
	if err != nil {
		t.Fatal(err)
	}
	got := parsed.Get(confmodel.TypeInterface, "xe-0/0/9").Get("description")
	if got != "link to row 7 rack 3" {
		t.Errorf("description = %q", got)
	}
}

func TestCrossVendorAgnosticTypesAgree(t *testing.T) {
	// An ACL parsed from JunOS text and one parsed from IOS text must map
	// to the same vendor-agnostic type — the core of the paper's
	// type-generalization step.
	var d Dialect
	c, err := d.Parse("firewall filter X {\n    term 10 \"permit ip any any\";\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.OfType(confmodel.TypeACL)) != 1 {
		t.Error("firewall filter did not map to acl type")
	}
}

// TestParseNextOutOfOrderAndRepeatedHeaders parses, as the successor of
// a rendered snapshot, hand-ordered text: the same blocks in reverse key
// order, then a repeated interfaces header, then a block both texts end
// with. The reordered blocks all lie in the window; the repeated header's
// last block wins as in a full parse; the block after the window is
// shared from prev; and prev is left as it was. The result repeats a key,
// so it has no layout, and the snapshot after it is parsed in full.
func TestParseNextOutOfOrderAndRepeatedHeaders(t *testing.T) {
	var d Dialect
	acl := "firewall filter A {\n    term 10 \"accept\";\n}\n"
	ge1 := "interfaces ge-0/0/1 {\n    description \"one\";\n}\n"
	ge2 := "interfaces ge-0/0/2 {\n    description \"two\";\n}\n"
	vlan := "vlans ten {\n    vlan-id 10;\n}\n"
	tail := "vlans twenty {\n    vlan-id 20;\n}\n"
	sc := confmodel.NewScratch()
	prev, err := d.ParseScratch("host-name r1;\n"+acl+ge1+ge2+vlan+tail, sc)
	if err != nil {
		t.Fatal(err)
	}
	before := d.Render(prev)
	next := "host-name r1;\n" + vlan + ge2 + ge1 + acl +
		"interfaces ge-0/0/2 {\n    description \"again\";\n}\n" + tail
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
	if s := got.Get(confmodel.TypeInterface, "ge-0/0/2"); s.Get("description") != "again" {
		t.Errorf("repeated header: description %q, want the last block's %q", s.Get("description"), "again")
	}
	if got.Get(confmodel.TypeVLAN, "twenty") != prev.Get(confmodel.TypeVLAN, "twenty") {
		t.Error("vlan twenty, after the window, was parsed again instead of shared from prev")
	}
	if d.Render(prev) != before {
		t.Error("ParseNext modified its prev config")
	}
	again := strings.Replace(next, "vlan-id 20", "vlan-id 21", 1)
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
