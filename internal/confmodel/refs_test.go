package confmodel

// The config-based inter-device reference counter: Benson et al.'s
// inter-device metric as defined, per device and quadratic in devices.
// No program counts this way: the engine sums per-device facts
// (internal/practices), whose tests pin the counts this defines.

// InterDeviceRefs counts references from one device's configuration to
// constructs on other devices of the same network. mgmtIPOwner maps a
// management IP to the owning hostname. Counted references:
//
//   - a BGP neighbor statement whose IP is another device's management IP;
//   - a VLAN configured on this device that is also configured on another
//     device (one reference per remote device sharing the VLAN);
//   - an OSPF process sharing an area with a process on another device
//     (one reference per remote device in the same area).
func InterDeviceRefs(c *Config, peers []*Config, mgmtIPOwner map[string]string) int {
	refs := 0
	// BGP neighbors pointing at peer devices.
	for _, s := range c.OfType(TypeBGP) {
		for ip := range s.OptionsWithPrefix("neighbor:") {
			if owner, ok := mgmtIPOwner[ip]; ok && owner != c.Hostname {
				refs++
			}
		}
	}
	// VLANs shared with peers.
	for _, s := range c.OfType(TypeVLAN) {
		id := s.Get("vlan-id")
		if id == "" {
			id = s.Name
		}
		for _, p := range peers {
			if p.Hostname == c.Hostname {
				continue
			}
			if hasVLANID(p, id) {
				refs++
			}
		}
	}
	// OSPF areas shared with peers.
	for _, s := range c.OfType(TypeOSPF) {
		area := s.Get("area")
		if area == "" {
			continue
		}
		for _, p := range peers {
			if p.Hostname == c.Hostname {
				continue
			}
			if hasOSPFArea(p, area) {
				refs++
			}
		}
	}
	return refs
}

// hasOSPFArea reports whether the configuration has an OSPF process in the
// given area.
func hasOSPFArea(c *Config, area string) bool {
	for _, s := range c.OfType(TypeOSPF) {
		if s.Get("area") == area {
			return true
		}
	}
	return false
}
