package confmodel

import (
	"fmt"
	"sort"
)

// Issue is one static-analysis finding in a device configuration: a
// reference from one stanza to a construct that does not exist. Dangling
// references are the classic misconfiguration class Batfish-style tools
// detect; MPA's reference-complexity metrics (D6) count the same edges
// this validator checks.
type Issue struct {
	// Stanza identifies the referring stanza.
	Stanza string
	// Option is the option holding the dangling reference.
	Option string
	// Target describes the missing construct.
	Target string
}

// String formats the issue.
func (i Issue) String() string {
	return fmt.Sprintf("%s: option %q references missing %s", i.Stanza, i.Option, i.Target)
}

// Validate statically checks a configuration for dangling intra-device
// references: interfaces referring to absent ACLs, VLANs, or QoS policies;
// VLAN stanzas enrolling absent interfaces; BGP referring to absent
// route-maps or prefix-lists; route-map entries matching absent prefix
// lists; DHCP relays bound to absent VLANs. Findings are returned in
// deterministic order.
func Validate(c *Config) []Issue {
	var issues []Issue
	add := func(s *Stanza, option, kind, name string) {
		issues = append(issues, Issue{
			Stanza: s.Key(),
			Option: option,
			Target: kind + " " + name,
		})
	}
	for _, s := range c.Stanzas() {
		switch s.Type {
		case TypeInterface:
			for _, opt := range []string{"acl-in", "acl-out"} {
				if name := s.Get(opt); name != "" && c.Get(TypeACL, name) == nil {
					add(s, opt, "acl", name)
				}
			}
			if id := s.Get("access-vlan"); id != "" && !hasVLANID(c, id) {
				add(s, "access-vlan", "vlan", id)
			}
			if name := s.Get("service-policy"); name != "" && c.Get(TypeQoS, name) == nil {
				add(s, "service-policy", "qos", name)
			}
		case TypeVLAN:
			for ifname := range s.OptionsWithPrefix("member:") {
				if c.Get(TypeInterface, ifname) == nil {
					add(s, "member:"+ifname, "interface", ifname)
				}
			}
		case TypeBGP:
			for name := range s.OptionsWithPrefix("route-map:") {
				if c.Get(TypeRouteMap, name) == nil {
					add(s, "route-map:"+name, "route-map", name)
				}
			}
			for name := range s.OptionsWithPrefix("prefix-list:") {
				if c.Get(TypePrefixList, name) == nil {
					add(s, "prefix-list:"+name, "prefix-list", name)
				}
			}
			for ip, rm := range s.OptionsWithPrefix("neighbor-rm:") {
				if c.Get(TypeRouteMap, rm) == nil {
					add(s, "neighbor-rm:"+ip, "route-map", rm)
				}
			}
		case TypeRouteMap:
			for seq, v := range s.OptionsWithPrefix("entry:") {
				if pl, ok := matchTarget(v); ok && c.Get(TypePrefixList, pl) == nil {
					add(s, "entry:"+seq, "prefix-list", pl)
				}
			}
		case TypeDHCPRelay:
			if id := s.Get("vlan"); id != "" && !hasVLANID(c, id) {
				add(s, "vlan", "vlan", id)
			}
		}
	}
	sort.Slice(issues, func(a, b int) bool {
		if issues[a].Stanza != issues[b].Stanza {
			return issues[a].Stanza < issues[b].Stanza
		}
		return issues[a].Option < issues[b].Option
	})
	return issues
}

// matchTarget extracts the prefix-list name from a route-map entry value
// of the form "... match:<name> ...".
func matchTarget(v string) (string, bool) {
	const marker = "match:"
	for i := 0; i+len(marker) <= len(v); i++ {
		if v[i:i+len(marker)] == marker {
			rest := v[i+len(marker):]
			end := 0
			for end < len(rest) && rest[end] != ' ' {
				end++
			}
			if end > 0 {
				return rest[:end], true
			}
		}
	}
	return "", false
}

// hasVLANID reports whether the configuration has a VLAN stanza with the
// given VLAN id (matching either the stanza name or the vlan-id option).
func hasVLANID(c *Config, id string) bool {
	for _, s := range c.OfType(TypeVLAN) {
		if s.Name == id || s.Get("vlan-id") == id {
			return true
		}
	}
	return false
}
