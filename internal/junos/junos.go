// Package junos implements a Juniper-JunOS-flavored configuration dialect:
// hierarchical brace-delimited blocks with semicolon-terminated option
// lines, and the vendor stanza keywords the paper names — `firewall
// filter` for ACLs, and interface-to-VLAN membership configured inside the
// vlans stanza (the `interface` option), so the same logical change is
// typed as a vlan change on Juniper where it is an interface change on
// Cisco (paper §2.2).
package junos

import (
	"fmt"
	"sort"
	"strings"

	"mpa/internal/confmodel"
)

// Dialect is the JunOS dialect. The zero value is ready to use.
type Dialect struct{}

var _ confmodel.Dialect = Dialect{}

// Name returns "junos".
func (Dialect) Name() string { return "junos" }

// Render serializes the configuration to JunOS-style text.
func (Dialect) Render(c *confmodel.Config) string {
	var b strings.Builder
	if c.Hostname != "" {
		fmt.Fprintf(&b, "host-name %s;\n", c.Hostname)
	}
	for _, s := range c.Stanzas() {
		renderStanza(&b, s)
	}
	return b.String()
}

func renderStanza(b *strings.Builder, s *confmodel.Stanza) {
	open := func(header string) { fmt.Fprintf(b, "%s {\n", header) }
	closeBlock := func() { b.WriteString("}\n") }
	opt := func(key, format string) {
		if v := s.Get(key); v != "" {
			fmt.Fprintf(b, "    "+format+";\n", v)
		}
	}
	prefixed := func(prefix, format string) {
		for _, k := range sortedSuffixes(s, prefix) {
			fmt.Fprintf(b, "    "+format+";\n", k, s.Get(prefix+k))
		}
	}
	prefixedKeyOnly := func(prefix, format string) {
		for _, k := range sortedSuffixes(s, prefix) {
			fmt.Fprintf(b, "    "+format+";\n", k)
		}
	}

	switch s.Type {
	case confmodel.TypeInterface:
		open("interfaces " + s.Name)
		opt("description", "description \"%s\"")
		opt("address", "address %s")
		opt("mtu", "mtu %s")
		opt("acl-in", "filter input %s")
		opt("acl-out", "filter output %s")
		opt("lag-group", "gigether-options 802.3ad ae%s")
		opt("service-policy", "scheduler-map %s")
		if s.Get("shutdown") == "true" {
			b.WriteString("    disable;\n")
		}
		closeBlock()
	case confmodel.TypeVLAN:
		open("vlans " + s.Name)
		opt("vlan-id", "vlan-id %s")
		opt("description", "description \"%s\"")
		// The Juniper quirk: interface membership lives here.
		prefixedKeyOnly("member:", "interface %s")
		closeBlock()
	case confmodel.TypeACL:
		open("firewall filter " + s.Name)
		prefixed("rule:", "term %s \"%s\"")
		closeBlock()
	case confmodel.TypeBGP:
		open("protocols bgp " + s.Name)
		prefixed("neighbor:", "neighbor %s peer-as %s")
		prefixed("neighbor-rm:", "neighbor-export %s policy %s")
		prefixedKeyOnly("network:", "network %s")
		prefixed("prefix-list:", "import prefix-list %s %s")
		prefixed("route-map:", "export policy %s from %s")
		closeBlock()
	case confmodel.TypeOSPF:
		open("protocols ospf " + s.Name)
		opt("area", "area %s")
		prefixed("network:", "network %s area %s")
		closeBlock()
	case confmodel.TypePool:
		open("load-balancing pool " + s.Name)
		opt("monitor", "monitor %s")
		prefixed("member:", "member %s weight %s")
		closeBlock()
	case confmodel.TypeUser:
		open("login user " + s.Name)
		opt("role", "class %s")
		opt("hash", "authentication encrypted-password %s")
		closeBlock()
	case confmodel.TypeSNMP:
		open("snmp")
		opt("community", "community %s")
		prefixedKeyOnly("host:", "trap-target %s")
		closeBlock()
	case confmodel.TypeNTP:
		open("ntp")
		prefixedKeyOnly("server:", "server %s")
		closeBlock()
	case confmodel.TypeLogging:
		open("syslog")
		opt("level", "level %s")
		prefixedKeyOnly("host:", "host %s")
		closeBlock()
	case confmodel.TypeQoS:
		open("class-of-service " + s.Name)
		prefixed("class:", "forwarding-class %s bandwidth %s")
		closeBlock()
	case confmodel.TypeSflow:
		open("sflow")
		opt("collector", "collector %s")
		opt("rate", "sample-rate %s")
		closeBlock()
	case confmodel.TypeSTP:
		open("stp")
		opt("mode", "mode %s")
		opt("priority", "bridge-priority %s")
		opt("region", "configuration-name %s")
		closeBlock()
	case confmodel.TypeUDLD:
		open("link-fault-management")
		if s.Get("enable") == "true" {
			b.WriteString("    enable;\n")
		}
		closeBlock()
	case confmodel.TypeDHCPRelay:
		open("forwarding-options dhcp-relay " + s.Name)
		opt("vlan", "vlan %s")
		prefixedKeyOnly("server:", "server-group %s")
		closeBlock()
	case confmodel.TypePrefixList:
		open("policy-options prefix-list " + s.Name)
		prefixed("rule:", "rule %s \"%s\"")
		closeBlock()
	case confmodel.TypeRouteMap:
		open("policy-options policy-statement " + s.Name)
		prefixed("entry:", "term %s \"%s\"")
		closeBlock()
	default:
		open("apply-groups " + s.Name)
		closeBlock()
	}
}

func sortedSuffixes(s *confmodel.Stanza, prefix string) []string {
	m := s.OptionsWithPrefix(prefix)
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ParseError reports a line the parser could not interpret.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("junos: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parse recovers a configuration from JunOS-style text produced by Render.
func (d Dialect) Parse(text string) (*confmodel.Config, error) {
	return d.ParseScratch(text, nil)
}

// ParseScratch is Parse with caller-provided scratch buffers (see
// confmodel.Scratch): line scanning and tokenization index into the raw
// text instead of allocating per-line slices, and repeated stanza keys
// and option keys come from the scratch interner. A nil scratch
// allocates a fresh one. Every string stored in the returned Config is
// immutable (it aliases text or the interner) and safe to retain after
// the scratch is reset or reused.
func (d Dialect) ParseScratch(text string, sc *confmodel.Scratch) (*confmodel.Config, error) {
	return d.ParseNext(nil, text, sc)
}

// ParseNext is ParseScratch for the snapshot that follows prev (see
// confmodel.ScratchParser and confmodel.Window). A top-level block runs
// from the end of the one before through a "}" line or a host-name line
// outside any block.
func (Dialect) ParseNext(prev *confmodel.Config, text string, sc *confmodel.Scratch) (*confmodel.Config, error) {
	return confmodel.ParseNext(prev, text, sc, &grammar, parse)
}

// grammar is the block structure ParseNext's window relies on: no block
// continues past its "}" line, and no stanza spans blocks.
var grammar confmodel.Grammar

// parse parses the part of text the window plans into its config,
// reporting each top-level block to it.
func parse(w *confmodel.Window, text string, sc *confmodel.Scratch) (*confmodel.Config, error) {
	c := w.Config()
	var cur *confmodel.Stanza
	curHost := false // cur's block contains a host-name line
	start, lineNo := w.Start()
	for start <= len(text) {
		if cur == nil && w.Resume(start) {
			return c, nil
		}
		var raw string
		if end := strings.IndexByte(text[start:], '\n'); end < 0 {
			raw = text[start:]
			start = len(text) + 1
		} else {
			raw = text[start : start+end]
			start += end + 1
		}
		lineNo++
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "host-name ") && strings.HasSuffix(line, ";"):
			c.Hostname = strings.TrimSuffix(sc.Fields(line)[1], ";")
			if cur != nil {
				curHost = true
			} else {
				w.Block(min(start, len(text)), nil, true)
			}
		case line == "}":
			if cur == nil {
				return nil, &ParseError{lineNo, line, "unbalanced close brace"}
			}
			c.Upsert(cur)
			w.Block(min(start, len(text)), cur, curHost)
			cur = nil
		case strings.HasSuffix(line, "{"):
			if cur != nil {
				return nil, &ParseError{lineNo, line, "nested block"}
			}
			header := strings.TrimSpace(strings.TrimSuffix(line, "{"))
			t, name, err := headerKey(sc, header)
			if err != nil {
				return nil, &ParseError{lineNo, line, err.Error()}
			}
			cur, curHost = sc.NewStanza(t, name), false
			if t == confmodel.TypeBGP {
				cur.Set("local-as", name)
			}
		case strings.HasSuffix(line, ";"):
			if cur == nil {
				return nil, &ParseError{lineNo, line, "option outside block"}
			}
			if err := parseOption(sc, cur, strings.TrimSuffix(line, ";")); err != nil {
				return nil, &ParseError{lineNo, line, err.Error()}
			}
		default:
			return nil, &ParseError{lineNo, line, "unrecognized line"}
		}
	}
	if cur != nil {
		return nil, &ParseError{0, "", "unterminated block"}
	}
	w.Block(len(text), nil, false)
	return c, nil
}

// headerKey maps a JunOS block header to the vendor-agnostic type and
// name of its stanza, without allocating.
func headerKey(sc *confmodel.Scratch, header string) (confmodel.Type, string, error) {
	fields := sc.Fields(header)
	if len(fields) == 0 {
		return 0, "", fmt.Errorf("empty block header")
	}
	switch {
	case fields[0] == "interfaces" && len(fields) == 2:
		return confmodel.TypeInterface, fields[1], nil
	case fields[0] == "vlans" && len(fields) == 2:
		return confmodel.TypeVLAN, fields[1], nil
	case fields[0] == "firewall" && len(fields) == 3 && fields[1] == "filter":
		return confmodel.TypeACL, fields[2], nil
	case fields[0] == "protocols" && len(fields) == 3 && fields[1] == "bgp":
		return confmodel.TypeBGP, fields[2], nil
	case fields[0] == "protocols" && len(fields) == 3 && fields[1] == "ospf":
		return confmodel.TypeOSPF, fields[2], nil
	case fields[0] == "load-balancing" && len(fields) == 3 && fields[1] == "pool":
		return confmodel.TypePool, fields[2], nil
	case fields[0] == "login" && len(fields) == 3 && fields[1] == "user":
		return confmodel.TypeUser, fields[2], nil
	case header == "snmp":
		return confmodel.TypeSNMP, "global", nil
	case header == "ntp":
		return confmodel.TypeNTP, "global", nil
	case header == "syslog":
		return confmodel.TypeLogging, "global", nil
	case fields[0] == "class-of-service" && len(fields) == 2:
		return confmodel.TypeQoS, fields[1], nil
	case header == "sflow":
		return confmodel.TypeSflow, "global", nil
	case header == "stp":
		return confmodel.TypeSTP, "global", nil
	case header == "link-fault-management":
		return confmodel.TypeUDLD, "global", nil
	case fields[0] == "forwarding-options" && len(fields) == 3 && fields[1] == "dhcp-relay":
		return confmodel.TypeDHCPRelay, fields[2], nil
	case fields[0] == "policy-options" && len(fields) == 3 && fields[1] == "prefix-list":
		return confmodel.TypePrefixList, fields[2], nil
	case fields[0] == "policy-options" && len(fields) == 3 && fields[1] == "policy-statement":
		return confmodel.TypeRouteMap, fields[2], nil
	case fields[0] == "apply-groups" && len(fields) == 2:
		return confmodel.TypeOther, fields[1], nil
	default:
		return 0, "", fmt.Errorf("unknown block header")
	}
}

// parseOption interprets one semicolon-terminated option line.
func parseOption(sc *confmodel.Scratch, s *confmodel.Stanza, line string) error {
	fields := sc.Fields(line)
	if len(fields) == 0 {
		return fmt.Errorf("empty option line")
	}
	quoted := func(rest string) string {
		return strings.Trim(strings.TrimSpace(rest), "\"")
	}
	switch s.Type {
	case confmodel.TypeInterface:
		switch {
		case fields[0] == "description" && quoted(line[len("description"):]) != "":
			s.Set("description", quoted(line[len("description"):]))
		case fields[0] == "address" && len(fields) == 2:
			s.Set("address", fields[1])
		case fields[0] == "mtu" && len(fields) == 2:
			s.Set("mtu", fields[1])
		case fields[0] == "filter" && len(fields) == 3 && fields[1] == "input":
			s.Set("acl-in", fields[2])
		case fields[0] == "filter" && len(fields) == 3 && fields[1] == "output":
			s.Set("acl-out", fields[2])
		case fields[0] == "gigether-options" && len(fields) == 3 && fields[1] == "802.3ad" &&
			strings.TrimPrefix(fields[2], "ae") != "":
			s.Set("lag-group", strings.TrimPrefix(fields[2], "ae"))
		case fields[0] == "scheduler-map" && len(fields) == 2:
			s.Set("service-policy", fields[1])
		case line == "disable":
			s.Set("shutdown", "true")
		default:
			return fmt.Errorf("unknown interface option")
		}
	case confmodel.TypeVLAN:
		switch {
		case fields[0] == "vlan-id" && len(fields) == 2:
			s.Set("vlan-id", fields[1])
		case fields[0] == "description" && quoted(line[len("description"):]) != "":
			s.Set("description", quoted(line[len("description"):]))
		case fields[0] == "interface" && len(fields) == 2:
			s.Set(sc.Intern2("member:", fields[1]), "true")
		default:
			return fmt.Errorf("unknown vlan option")
		}
	case confmodel.TypeACL:
		if fields[0] == "term" && len(fields) >= 3 {
			s.Set(sc.Intern2("rule:", fields[1]), sc.InternJoinTrim(fields[2:], "\""))
		} else {
			return fmt.Errorf("unknown filter option")
		}
	case confmodel.TypeBGP:
		switch {
		case fields[0] == "neighbor" && len(fields) == 4 && fields[2] == "peer-as":
			s.Set(sc.Intern2("neighbor:", fields[1]), fields[3])
		case fields[0] == "neighbor-export" && len(fields) == 4 && fields[2] == "policy":
			s.Set(sc.Intern2("neighbor-rm:", fields[1]), fields[3])
		case fields[0] == "network" && len(fields) == 2:
			s.Set(sc.Intern2("network:", fields[1]), "true")
		case fields[0] == "import" && len(fields) == 4 && fields[1] == "prefix-list":
			s.Set(sc.Intern2("prefix-list:", fields[2]), fields[3])
		case fields[0] == "export" && len(fields) == 5 && fields[1] == "policy" && fields[3] == "from":
			s.Set(sc.Intern2("route-map:", fields[2]), fields[4])
		default:
			return fmt.Errorf("unknown bgp option")
		}
	case confmodel.TypeOSPF:
		switch {
		case fields[0] == "area" && len(fields) == 2:
			s.Set("area", fields[1])
		case fields[0] == "network" && len(fields) == 4 && fields[2] == "area":
			s.Set(sc.Intern2("network:", fields[1]), fields[3])
		default:
			return fmt.Errorf("unknown ospf option")
		}
	case confmodel.TypePool:
		switch {
		case fields[0] == "monitor" && len(fields) == 2:
			s.Set("monitor", fields[1])
		case fields[0] == "member" && len(fields) == 4 && fields[2] == "weight":
			s.Set(sc.Intern2("member:", fields[1]), fields[3])
		default:
			return fmt.Errorf("unknown pool option")
		}
	case confmodel.TypeUser:
		switch {
		case fields[0] == "class" && len(fields) == 2:
			s.Set("role", fields[1])
		case fields[0] == "authentication" && len(fields) == 3 && fields[1] == "encrypted-password":
			s.Set("hash", fields[2])
		default:
			return fmt.Errorf("unknown user option")
		}
	case confmodel.TypeSNMP:
		switch {
		case fields[0] == "community" && len(fields) == 2:
			s.Set("community", fields[1])
		case fields[0] == "trap-target" && len(fields) == 2:
			s.Set(sc.Intern2("host:", fields[1]), "true")
		default:
			return fmt.Errorf("unknown snmp option")
		}
	case confmodel.TypeNTP:
		if fields[0] == "server" && len(fields) == 2 {
			s.Set(sc.Intern2("server:", fields[1]), "true")
		} else {
			return fmt.Errorf("unknown ntp option")
		}
	case confmodel.TypeLogging:
		switch {
		case fields[0] == "level" && len(fields) == 2:
			s.Set("level", fields[1])
		case fields[0] == "host" && len(fields) == 2:
			s.Set(sc.Intern2("host:", fields[1]), "true")
		default:
			return fmt.Errorf("unknown syslog option")
		}
	case confmodel.TypeQoS:
		if fields[0] == "forwarding-class" && len(fields) == 4 && fields[2] == "bandwidth" {
			s.Set(sc.Intern2("class:", fields[1]), fields[3])
		} else {
			return fmt.Errorf("unknown class-of-service option")
		}
	case confmodel.TypeSflow:
		switch {
		case fields[0] == "collector" && len(fields) == 2:
			s.Set("collector", fields[1])
		case fields[0] == "sample-rate" && len(fields) == 2:
			s.Set("rate", fields[1])
		default:
			return fmt.Errorf("unknown sflow option")
		}
	case confmodel.TypeSTP:
		switch {
		case fields[0] == "mode" && len(fields) == 2:
			s.Set("mode", fields[1])
		case fields[0] == "bridge-priority" && len(fields) == 2:
			s.Set("priority", fields[1])
		case fields[0] == "configuration-name" && len(fields) == 2:
			s.Set("region", fields[1])
		default:
			return fmt.Errorf("unknown stp option")
		}
	case confmodel.TypeUDLD:
		if line == "enable" {
			s.Set("enable", "true")
		} else {
			return fmt.Errorf("unknown link-fault-management option")
		}
	case confmodel.TypeDHCPRelay:
		switch {
		case fields[0] == "vlan" && len(fields) == 2:
			s.Set("vlan", fields[1])
		case fields[0] == "server-group" && len(fields) == 2:
			s.Set(sc.Intern2("server:", fields[1]), "true")
		default:
			return fmt.Errorf("unknown dhcp-relay option")
		}
	case confmodel.TypePrefixList:
		if fields[0] == "rule" && len(fields) >= 3 {
			s.Set(sc.Intern2("rule:", fields[1]), sc.InternJoinTrim(fields[2:], "\""))
		} else {
			return fmt.Errorf("unknown prefix-list option")
		}
	case confmodel.TypeRouteMap:
		if fields[0] == "term" && len(fields) >= 3 {
			s.Set(sc.Intern2("entry:", fields[1]), sc.InternJoinTrim(fields[2:], "\""))
		} else {
			return fmt.Errorf("unknown policy-statement option")
		}
	default:
		return fmt.Errorf("option for stanza type without options")
	}
	return nil
}
