// Package ciscoios implements a Cisco-IOS-flavored configuration dialect:
// deterministic rendering of a confmodel.Config to IOS-style text, and a
// parser that recovers the configuration, mapping IOS stanza keywords to
// vendor-agnostic types (e.g. `ip access-list` -> acl), as the paper's
// extended-Batfish pipeline does (§2.2).
//
// The dialect is a faithful structural model rather than a byte-exact IOS
// grammar: stanza headers and most option lines use real IOS syntax, and
// the vendor-specific placement quirks the paper calls out are preserved —
// in particular, interface-to-VLAN assignment lives in the interface
// stanza (`switchport access vlan N`), so such changes are typed as
// interface changes on Cisco devices.
package ciscoios

import (
	"fmt"
	"sort"
	"strings"

	"mpa/internal/confmodel"
)

// Dialect is the Cisco IOS dialect. The zero value is ready to use.
type Dialect struct{}

var _ confmodel.Dialect = Dialect{}

// Name returns "cisco-ios".
func (Dialect) Name() string { return "cisco-ios" }

// Render serializes the configuration to IOS-style text. Stanzas appear in
// deterministic key order; the global single-line families (snmp, ntp,
// logging, sflow, stp, udld) render as top-level command lines.
func (Dialect) Render(c *confmodel.Config) string {
	var b strings.Builder
	if c.Hostname != "" {
		fmt.Fprintf(&b, "hostname %s\n!\n", c.Hostname)
	}
	for _, s := range c.Stanzas() {
		renderStanza(&b, s)
	}
	b.WriteString("end\n")
	return b.String()
}

func renderStanza(b *strings.Builder, s *confmodel.Stanza) {
	switch s.Type {
	case confmodel.TypeInterface:
		fmt.Fprintf(b, "interface %s\n", s.Name)
		emit(b, s, "description", " description %s\n")
		emit(b, s, "address", " ip address %s\n")
		emit(b, s, "mtu", " mtu %s\n")
		emit(b, s, "access-vlan", " switchport access vlan %s\n")
		emit(b, s, "acl-in", " ip access-group %s in\n")
		emit(b, s, "acl-out", " ip access-group %s out\n")
		emit(b, s, "lag-group", " channel-group %s mode active\n")
		emit(b, s, "service-policy", " service-policy output %s\n")
		if s.Get("shutdown") == "true" {
			b.WriteString(" shutdown\n")
		}
		b.WriteString("!\n")
	case confmodel.TypeVLAN:
		fmt.Fprintf(b, "vlan %s\n", s.Name)
		emit(b, s, "description", " name %s\n")
		b.WriteString("!\n")
	case confmodel.TypeACL:
		fmt.Fprintf(b, "ip access-list extended %s\n", s.Name)
		for _, seq := range sortedSuffixes(s, "rule:") {
			fmt.Fprintf(b, " %s %s\n", seq, s.Get("rule:"+seq))
		}
		b.WriteString("!\n")
	case confmodel.TypeBGP:
		fmt.Fprintf(b, "router bgp %s\n", s.Name)
		for _, ip := range sortedSuffixes(s, "neighbor:") {
			fmt.Fprintf(b, " neighbor %s remote-as %s\n", ip, s.Get("neighbor:"+ip))
		}
		for _, ip := range sortedSuffixes(s, "neighbor-rm:") {
			fmt.Fprintf(b, " neighbor %s route-map %s out\n", ip, s.Get("neighbor-rm:"+ip))
		}
		for _, pfx := range sortedSuffixes(s, "network:") {
			fmt.Fprintf(b, " network %s\n", pfx)
		}
		for _, name := range sortedSuffixes(s, "prefix-list:") {
			fmt.Fprintf(b, " distribute-list prefix %s %s\n", name, s.Get("prefix-list:"+name))
		}
		for _, name := range sortedSuffixes(s, "route-map:") {
			fmt.Fprintf(b, " redistribute %s route-map %s\n", s.Get("route-map:"+name), name)
		}
		b.WriteString("!\n")
	case confmodel.TypeOSPF:
		fmt.Fprintf(b, "router ospf %s\n", s.Name)
		emit(b, s, "area", " area %s authentication message-digest\n")
		for _, pfx := range sortedSuffixes(s, "network:") {
			fmt.Fprintf(b, " network %s area %s\n", pfx, s.Get("network:"+pfx))
		}
		b.WriteString("!\n")
	case confmodel.TypePool:
		fmt.Fprintf(b, "ip slb serverfarm %s\n", s.Name)
		emit(b, s, "monitor", " probe %s\n")
		for _, member := range sortedSuffixes(s, "member:") {
			fmt.Fprintf(b, " real %s weight %s\n", member, s.Get("member:"+member))
		}
		b.WriteString("!\n")
	case confmodel.TypeUser:
		fmt.Fprintf(b, "username %s privilege %s secret 5 %s\n",
			s.Name, orDefault(s.Get("role"), "1"), orDefault(s.Get("hash"), "*"))
	case confmodel.TypeSNMP:
		emit(b, s, "community", "snmp-server community %s ro\n")
		for _, ip := range sortedSuffixes(s, "host:") {
			fmt.Fprintf(b, "snmp-server host %s\n", ip)
		}
	case confmodel.TypeNTP:
		for _, ip := range sortedSuffixes(s, "server:") {
			fmt.Fprintf(b, "ntp server %s\n", ip)
		}
	case confmodel.TypeLogging:
		emit(b, s, "level", "logging trap %s\n")
		for _, ip := range sortedSuffixes(s, "host:") {
			fmt.Fprintf(b, "logging host %s\n", ip)
		}
	case confmodel.TypeQoS:
		fmt.Fprintf(b, "policy-map %s\n", s.Name)
		for _, cls := range sortedSuffixes(s, "class:") {
			fmt.Fprintf(b, " class %s bandwidth %s\n", cls, s.Get("class:"+cls))
		}
		b.WriteString("!\n")
	case confmodel.TypeSflow:
		emit(b, s, "collector", "sflow collector %s\n")
		emit(b, s, "rate", "sflow sampling-rate %s\n")
	case confmodel.TypeSTP:
		emit(b, s, "mode", "spanning-tree mode %s\n")
		emit(b, s, "priority", "spanning-tree priority %s\n")
		emit(b, s, "region", "spanning-tree mst region %s\n")
	case confmodel.TypeUDLD:
		if s.Get("enable") == "true" {
			b.WriteString("udld enable\n")
		}
	case confmodel.TypeDHCPRelay:
		fmt.Fprintf(b, "ip dhcp-relay %s\n", s.Name)
		emit(b, s, "vlan", " vlan %s\n")
		for _, ip := range sortedSuffixes(s, "server:") {
			fmt.Fprintf(b, " server %s\n", ip)
		}
		b.WriteString("!\n")
	case confmodel.TypePrefixList:
		for _, seq := range sortedSuffixes(s, "rule:") {
			fmt.Fprintf(b, "ip prefix-list %s seq %s %s\n", s.Name, seq, s.Get("rule:"+seq))
		}
	case confmodel.TypeRouteMap:
		fmt.Fprintf(b, "route-map %s\n", s.Name)
		for _, seq := range sortedSuffixes(s, "entry:") {
			fmt.Fprintf(b, " entry %s %s\n", seq, s.Get("entry:"+seq))
		}
		b.WriteString("!\n")
	default:
		fmt.Fprintf(b, "other %s\n!\n", s.Name)
	}
}

// emit writes a formatted line for the option when it is set.
func emit(b *strings.Builder, s *confmodel.Stanza, key, format string) {
	if v := s.Get(key); v != "" {
		fmt.Fprintf(b, format, v)
	}
}

// sortedSuffixes returns the sorted option-key suffixes for a prefix.
func sortedSuffixes(s *confmodel.Stanza, prefix string) []string {
	m := s.OptionsWithPrefix(prefix)
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// ParseError reports a line the parser could not interpret.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ciscoios: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parse recovers a configuration from IOS-style text produced by Render.
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
// confmodel.ScratchParser and confmodel.Window). A top-level block is a
// non-indented line that is not blank, "!" or "end", with every line up
// to the next such line; the single-line families (snmp-server, ntp,
// logging, sflow, spanning-tree, udld, ip prefix-list) build one stanza
// up over several blocks, so the window never ends next to one of them.
func (Dialect) ParseNext(prev *confmodel.Config, text string, sc *confmodel.Scratch) (*confmodel.Config, error) {
	return confmodel.ParseNext(prev, text, sc, &grammar, parse)
}

// grammar is the block structure ParseNext's window relies on.
var grammar = confmodel.Grammar{
	Opens: func(rest string) bool {
		line, _, _ := strings.Cut(rest, "\n")
		line = strings.TrimRight(line, " \t")
		return !skipped(line) && !strings.HasPrefix(line, " ")
	},
	Merged: confmodel.TypesOf(confmodel.TypeSNMP, confmodel.TypeNTP, confmodel.TypeLogging,
		confmodel.TypeSflow, confmodel.TypeSTP, confmodel.TypeUDLD, confmodel.TypePrefixList),
}

// parse parses the part of text the window plans into its config,
// reporting each top-level block to it.
func parse(w *confmodel.Window, text string, sc *confmodel.Scratch) (*confmodel.Config, error) {
	c := w.Config()
	var cur *confmodel.Stanza // the open block's stanza, upserted when it ends
	// made is the stanza the open top-level block produces, and sets
	// whether it sets the hostname.
	var made *confmodel.Stanza
	sets := false
	closeBlock := func(at int) {
		if cur != nil {
			c.Upsert(cur)
			cur = nil
		}
		w.Block(at, made, sets)
		made, sets = nil, false
	}
	// globals holds the singleton stanza of each global command family
	// for this parse; they are only ever created here, so the array is
	// equivalent to (and cheaper than) looking the stanza up by key.
	var globals [confmodel.NumTypes]*confmodel.Stanza
	global := func(t confmodel.Type) *confmodel.Stanza {
		s := globals[t]
		if s == nil {
			s = sc.NewStanza(t, "global")
			c.Upsert(s)
			globals[t] = s
		}
		made = s
		return s
	}
	start, lineNo := w.Start()
	for start <= len(text) {
		lineStart := start
		var raw string
		if end := strings.IndexByte(text[start:], '\n'); end < 0 {
			raw = text[start:]
			start = len(text) + 1
		} else {
			raw = text[start : start+end]
			start += end + 1
		}
		lineNo++
		line := strings.TrimRight(raw, " \t")
		if skipped(line) {
			continue
		}
		if strings.HasPrefix(line, " ") {
			if cur == nil {
				return nil, &ParseError{lineNo, line, "option line outside stanza"}
			}
			if err := parseOption(sc, cur, strings.TrimSpace(line)); err != nil {
				return nil, &ParseError{lineNo, line, err.Error()}
			}
			continue
		}
		closeBlock(lineStart)
		if w.Resume(lineStart) {
			return c, nil
		}
		fields := sc.Fields(line)
		if t, name, ok := blockHeader(line, fields); ok {
			cur = sc.NewStanza(t, name)
			made = cur
			switch t {
			case confmodel.TypeVLAN:
				cur.Set("vlan-id", name)
			case confmodel.TypeBGP:
				cur.Set("local-as", name)
			}
			continue
		}
		switch {
		case fields[0] == "hostname" && len(fields) == 2:
			c.Hostname = fields[1]
			sets = true
		case fields[0] == "username" && len(fields) == 7:
			made = sc.NewStanza(confmodel.TypeUser, fields[1])
			made.Set("role", fields[3]).Set("hash", fields[6])
			c.Upsert(made)
		case strings.HasPrefix(line, "snmp-server community ") && len(fields) == 4:
			global(confmodel.TypeSNMP).Set("community", fields[2])
		case strings.HasPrefix(line, "snmp-server host ") && len(fields) == 3:
			global(confmodel.TypeSNMP).Set(sc.Intern2("host:", fields[2]), "true")
		case strings.HasPrefix(line, "ntp server ") && len(fields) == 3:
			global(confmodel.TypeNTP).Set(sc.Intern2("server:", fields[2]), "true")
		case strings.HasPrefix(line, "logging trap ") && len(fields) == 3:
			global(confmodel.TypeLogging).Set("level", fields[2])
		case strings.HasPrefix(line, "logging host ") && len(fields) == 3:
			global(confmodel.TypeLogging).Set(sc.Intern2("host:", fields[2]), "true")
		case strings.HasPrefix(line, "sflow collector ") && len(fields) == 3:
			global(confmodel.TypeSflow).Set("collector", fields[2])
		case strings.HasPrefix(line, "sflow sampling-rate ") && len(fields) == 3:
			global(confmodel.TypeSflow).Set("rate", fields[2])
		case strings.HasPrefix(line, "spanning-tree mode ") && len(fields) == 3:
			global(confmodel.TypeSTP).Set("mode", fields[2])
		case strings.HasPrefix(line, "spanning-tree priority ") && len(fields) == 3:
			global(confmodel.TypeSTP).Set("priority", fields[2])
		case strings.HasPrefix(line, "spanning-tree mst region ") && len(fields) == 4:
			global(confmodel.TypeSTP).Set("region", fields[3])
		case line == "udld enable":
			global(confmodel.TypeUDLD).Set("enable", "true")
		case strings.HasPrefix(line, "ip prefix-list ") && len(fields) >= 5 && fields[3] == "seq":
			name := fields[2]
			made = c.Get(confmodel.TypePrefixList, name)
			if made == nil {
				made = sc.NewStanza(confmodel.TypePrefixList, name)
				c.Upsert(made)
			}
			made.Set(sc.Intern2("rule:", fields[4]), sc.InternJoin(fields[5:]))
		default:
			return nil, &ParseError{lineNo, line, "unrecognized top-level line"}
		}
	}
	closeBlock(len(text))
	return c, nil
}

// skipped reports whether the parser ignores a line (trailing blanks
// trimmed): it is blank, "!" or "end".
func skipped(line string) bool {
	return strings.TrimSpace(line) == "" || line == "!" || line == "end"
}

// blockHeader maps a top-level line that opens a block to its stanza
// type and name.
func blockHeader(line string, fields []string) (confmodel.Type, string, bool) {
	switch {
	case fields[0] == "interface" && len(fields) == 2:
		return confmodel.TypeInterface, fields[1], true
	case fields[0] == "vlan" && len(fields) == 2:
		return confmodel.TypeVLAN, fields[1], true
	case strings.HasPrefix(line, "ip access-list extended ") && len(fields) == 4:
		return confmodel.TypeACL, fields[3], true
	case strings.HasPrefix(line, "router bgp ") && len(fields) == 3:
		return confmodel.TypeBGP, fields[2], true
	case strings.HasPrefix(line, "router ospf ") && len(fields) == 3:
		return confmodel.TypeOSPF, fields[2], true
	case strings.HasPrefix(line, "ip slb serverfarm ") && len(fields) == 4:
		return confmodel.TypePool, fields[3], true
	case fields[0] == "policy-map" && len(fields) == 2:
		return confmodel.TypeQoS, fields[1], true
	case strings.HasPrefix(line, "ip dhcp-relay ") && len(fields) == 3:
		return confmodel.TypeDHCPRelay, fields[2], true
	case fields[0] == "route-map" && len(fields) == 2:
		return confmodel.TypeRouteMap, fields[1], true
	case fields[0] == "other" && len(fields) == 2:
		return confmodel.TypeOther, fields[1], true
	}
	return 0, "", false
}

// parseOption interprets one indented option line in the context of the
// current stanza, using the scratch for tokenization and key interning.
func parseOption(sc *confmodel.Scratch, s *confmodel.Stanza, line string) error {
	fields := sc.Fields(line)
	if len(fields) == 0 {
		return fmt.Errorf("empty option line")
	}
	switch s.Type {
	case confmodel.TypeInterface:
		switch {
		case fields[0] == "description" && len(fields) >= 2:
			s.Set("description", sc.InternJoin(fields[1:]))
		case strings.HasPrefix(line, "ip address ") && len(fields) == 3:
			s.Set("address", fields[2])
		case fields[0] == "mtu" && len(fields) == 2:
			s.Set("mtu", fields[1])
		case strings.HasPrefix(line, "switchport access vlan ") && len(fields) == 4:
			s.Set("access-vlan", fields[3])
		case strings.HasPrefix(line, "ip access-group ") && len(fields) == 4 &&
			(fields[3] == "in" || fields[3] == "out"):
			s.Set(sc.Intern2("acl-", fields[3]), fields[2])
		case strings.HasPrefix(line, "channel-group ") && len(fields) == 4:
			s.Set("lag-group", fields[1])
		case strings.HasPrefix(line, "service-policy output ") && len(fields) == 3:
			s.Set("service-policy", fields[2])
		case line == "shutdown":
			s.Set("shutdown", "true")
		default:
			return fmt.Errorf("unknown interface option")
		}
	case confmodel.TypeVLAN:
		if fields[0] == "name" && len(fields) >= 2 {
			s.Set("description", sc.InternJoin(fields[1:]))
		} else {
			return fmt.Errorf("unknown vlan option")
		}
	case confmodel.TypeACL:
		if len(fields) < 2 {
			return fmt.Errorf("short acl rule")
		}
		s.Set(sc.Intern2("rule:", fields[0]), sc.InternJoin(fields[1:]))
	case confmodel.TypeBGP:
		switch {
		case fields[0] == "neighbor" && len(fields) == 4 && fields[2] == "remote-as":
			s.Set(sc.Intern2("neighbor:", fields[1]), fields[3])
		case fields[0] == "neighbor" && len(fields) == 5 && fields[2] == "route-map":
			s.Set(sc.Intern2("neighbor-rm:", fields[1]), fields[3])
		case fields[0] == "network" && len(fields) == 2:
			s.Set(sc.Intern2("network:", fields[1]), "true")
		case strings.HasPrefix(line, "distribute-list prefix ") && len(fields) == 4:
			s.Set(sc.Intern2("prefix-list:", fields[2]), fields[3])
		case fields[0] == "redistribute" && len(fields) == 4 && fields[2] == "route-map":
			s.Set(sc.Intern2("route-map:", fields[3]), fields[1])
		default:
			return fmt.Errorf("unknown bgp option")
		}
	case confmodel.TypeOSPF:
		switch {
		case fields[0] == "area" && len(fields) == 4:
			s.Set("area", fields[1])
		case fields[0] == "network" && len(fields) == 4 && fields[2] == "area":
			s.Set(sc.Intern2("network:", fields[1]), fields[3])
		default:
			return fmt.Errorf("unknown ospf option")
		}
	case confmodel.TypePool:
		switch {
		case fields[0] == "probe" && len(fields) == 2:
			s.Set("monitor", fields[1])
		case fields[0] == "real" && len(fields) == 4 && fields[2] == "weight":
			s.Set(sc.Intern2("member:", fields[1]), fields[3])
		default:
			return fmt.Errorf("unknown pool option")
		}
	case confmodel.TypeQoS:
		if fields[0] == "class" && len(fields) == 4 && fields[2] == "bandwidth" {
			s.Set(sc.Intern2("class:", fields[1]), fields[3])
		} else {
			return fmt.Errorf("unknown policy-map option")
		}
	case confmodel.TypeDHCPRelay:
		switch {
		case fields[0] == "vlan" && len(fields) == 2:
			s.Set("vlan", fields[1])
		case fields[0] == "server" && len(fields) == 2:
			s.Set(sc.Intern2("server:", fields[1]), "true")
		default:
			return fmt.Errorf("unknown dhcp-relay option")
		}
	case confmodel.TypeRouteMap:
		if fields[0] == "entry" && len(fields) >= 3 {
			s.Set(sc.Intern2("entry:", fields[1]), sc.InternJoin(fields[2:]))
		} else {
			return fmt.Errorf("unknown route-map option")
		}
	default:
		return fmt.Errorf("option for stanza type without options")
	}
	return nil
}
