package confmodel

import "strings"

// Reference counting follows Benson et al.'s configuration-complexity
// metrics (paper §2.2, D6): intra-device references are options in one
// stanza that name another stanza on the same device; inter-device
// references are options on one device that resolve to constructs on
// another device in the same network (BGP neighbor statements pointing at
// peers, VLANs spanning devices, OSPF areas shared across devices).

// IntraDeviceRefs counts configuration references within a single device:
// an option in stanza A naming stanza B counts as one reference when B
// exists in the same configuration.
func IntraDeviceRefs(c *Config) int {
	refs := 0
	for _, s := range c.Stanzas() {
		switch s.Type {
		case TypeInterface:
			if acl := s.Get("acl-in"); acl != "" && c.Get(TypeACL, acl) != nil {
				refs++
			}
			if acl := s.Get("acl-out"); acl != "" && c.Get(TypeACL, acl) != nil {
				refs++
			}
			if vlan := s.Get("access-vlan"); vlan != "" && c.Get(TypeVLAN, vlan) != nil {
				refs++
			}
			if qos := s.Get("service-policy"); qos != "" && c.Get(TypeQoS, qos) != nil {
				refs++
			}
		case TypeVLAN:
			// Juniper-style membership: vlan stanza references interfaces.
			for ifname := range s.OptionsWithPrefix("member:") {
				if c.Get(TypeInterface, ifname) != nil {
					refs++
				}
			}
		case TypeBGP:
			for name := range s.OptionsWithPrefix("route-map:") {
				if c.Get(TypeRouteMap, name) != nil {
					refs++
				}
			}
			for name := range s.OptionsWithPrefix("prefix-list:") {
				if c.Get(TypePrefixList, name) != nil {
					refs++
				}
			}
		case TypeRouteMap:
			for _, v := range s.OptionsWithPrefix("entry:") {
				// Entries may match prefix lists: "permit match:<pl>".
				if idx := strings.Index(v, "match:"); idx >= 0 {
					pl := strings.Fields(v[idx+len("match:"):])
					if len(pl) > 0 && c.Get(TypePrefixList, pl[0]) != nil {
						refs++
					}
				}
			}
		case TypeDHCPRelay:
			// Relay agents are bound to VLANs: "vlan" option.
			if vlan := s.Get("vlan"); vlan != "" && c.Get(TypeVLAN, vlan) != nil {
				refs++
			}
		}
	}
	return refs
}

// Dialect renders configurations to vendor text and parses them back. The
// two implementations live in internal/ciscoios and internal/junos.
type Dialect interface {
	// Name returns the dialect name ("cisco-ios", "junos").
	Name() string
	// Render serializes a configuration to vendor configuration text.
	// Rendering is deterministic: equal configs render identically.
	Render(c *Config) string
	// Parse recovers a configuration from vendor text produced by Render.
	// Vendor-specific stanza types are mapped to vendor-agnostic Types.
	Parse(text string) (*Config, error)
}
