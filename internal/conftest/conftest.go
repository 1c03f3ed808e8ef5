// Package conftest provides randomized configuration builders for
// property-based tests of the dialect packages: any configuration this
// package can produce must survive a render/parse round trip bit-exactly
// in both dialects.
package conftest

import (
	"fmt"
	"strings"

	"mpa/internal/confmodel"
	"mpa/internal/rng"
)

// Style selects vendor-appropriate option placement.
type Style int

// Styles.
const (
	StyleCisco Style = iota
	StyleJuniper
)

// RandomConfig builds a random but well-formed configuration: stanza names
// are unique per type, option values are drawn from the vocabularies the
// dialects understand, and vendor quirks (VLAN membership placement) follow
// the style.
func RandomConfig(r *rng.RNG, style Style) *confmodel.Config {
	c := confmodel.NewConfig(fmt.Sprintf("dev-%04x", r.Uint64()&0xffff))

	ifName := func(i int) string {
		if style == StyleCisco {
			return fmt.Sprintf("TenGigabitEthernet0/%d", i)
		}
		return fmt.Sprintf("xe-0/0/%d", i)
	}

	// Interfaces.
	nIf := 1 + r.Intn(6)
	var ifaces []string
	for i := 0; i < nIf; i++ {
		name := ifName(i)
		ifaces = append(ifaces, name)
		s := confmodel.NewStanza(confmodel.TypeInterface, name)
		if r.Bool(0.7) {
			s.Set("description", fmt.Sprintf("port %d of rack %d", i, r.Intn(40)))
		}
		if r.Bool(0.3) {
			s.Set("mtu", []string{"1500", "9000", "9216"}[r.Intn(3)])
		}
		if r.Bool(0.2) {
			s.Set("address", fmt.Sprintf("10.%d.%d.%d/31", r.Intn(250), r.Intn(250), r.Intn(250)))
		}
		if r.Bool(0.2) {
			s.Set("lag-group", fmt.Sprintf("%d", 1+r.Intn(8)))
		}
		if r.Bool(0.15) {
			s.Set("shutdown", "true")
		}
		c.Upsert(s)
	}

	// VLANs with the vendor quirk.
	nVLAN := r.Intn(5)
	for i := 0; i < nVLAN; i++ {
		id := fmt.Sprintf("%d", 100+i)
		var s *confmodel.Stanza
		if style == StyleCisco {
			s = confmodel.NewStanza(confmodel.TypeVLAN, id)
			s.Set("vlan-id", id)
			if r.Bool(0.6) {
				if is := c.Get(confmodel.TypeInterface, ifaces[r.Intn(len(ifaces))]); is != nil {
					is.Set("access-vlan", id)
				}
			}
		} else {
			s = confmodel.NewStanza(confmodel.TypeVLAN, "v"+id)
			s.Set("vlan-id", id)
			if r.Bool(0.6) {
				s.Set("member:"+ifaces[r.Intn(len(ifaces))], "true")
			}
		}
		if r.Bool(0.5) {
			s.Set("description", "seg-"+id)
		}
		c.Upsert(s)
	}

	// ACLs, possibly attached to interfaces.
	for i := 0; i < r.Intn(3); i++ {
		name := fmt.Sprintf("ACL-%d", i)
		s := confmodel.NewStanza(confmodel.TypeACL, name)
		for k := 0; k < 1+r.Intn(4); k++ {
			s.Set(fmt.Sprintf("rule:%d", (k+1)*10),
				fmt.Sprintf("%s tcp any any eq %d",
					[]string{"permit", "deny"}[r.Intn(2)], 1+r.Intn(9999)))
		}
		c.Upsert(s)
		if r.Bool(0.5) {
			if is := c.Get(confmodel.TypeInterface, ifaces[r.Intn(len(ifaces))]); is != nil {
				is.Set("acl-in", name)
			}
		}
	}

	// Routing.
	if r.Bool(0.5) {
		asn := fmt.Sprintf("%d", 64512+r.Intn(500))
		s := confmodel.NewStanza(confmodel.TypeBGP, asn).Set("local-as", asn)
		for k := 0; k < r.Intn(3); k++ {
			s.Set(fmt.Sprintf("neighbor:10.0.%d.%d", r.Intn(250), 1+r.Intn(250)),
				fmt.Sprintf("%d", 64512+r.Intn(500)))
		}
		if r.Bool(0.3) {
			s.Set("network:10.10.0.0/16", "true")
		}
		c.Upsert(s)
	}
	if r.Bool(0.3) {
		s := confmodel.NewStanza(confmodel.TypeOSPF, fmt.Sprintf("%d", 1+r.Intn(10)))
		s.Set("area", fmt.Sprintf("%d", r.Intn(3)))
		if r.Bool(0.5) {
			s.Set(fmt.Sprintf("network:10.%d.0.0/16", r.Intn(200)), s.Get("area"))
		}
		c.Upsert(s)
	}

	// Pools, users, globals.
	if r.Bool(0.3) {
		s := confmodel.NewStanza(confmodel.TypePool, fmt.Sprintf("POOL-%d", r.Intn(20)))
		for k := 0; k < 1+r.Intn(3); k++ {
			s.Set(fmt.Sprintf("member:10.200.%d.%d:443", r.Intn(8), 1+r.Intn(250)),
				fmt.Sprintf("%d", 1+r.Intn(9)))
		}
		if r.Bool(0.5) {
			s.Set("monitor", "tcp-443")
		}
		c.Upsert(s)
	}
	for i := 0; i < r.Intn(3); i++ {
		c.Upsert(confmodel.NewStanza(confmodel.TypeUser, fmt.Sprintf("user%d", i)).
			Set("role", fmt.Sprintf("%d", 1+r.Intn(15))).
			Set("hash", fmt.Sprintf("$1$%08x", r.Uint64()&0xffffffff)))
	}
	if r.Bool(0.6) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeSNMP, "global").
			Set("community", fmt.Sprintf("comm%d", r.Intn(100))).
			Set(fmt.Sprintf("host:10.250.0.%d", 1+r.Intn(200)), "true"))
	}
	if r.Bool(0.5) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeNTP, "global").
			Set(fmt.Sprintf("server:10.250.1.%d", 1+r.Intn(200)), "true"))
	}
	if r.Bool(0.4) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeLogging, "global").
			Set("level", []string{"informational", "warnings", "debugging"}[r.Intn(3)]).
			Set(fmt.Sprintf("host:10.250.2.%d", 1+r.Intn(200)), "true"))
	}
	if r.Bool(0.3) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeSTP, "global").
			Set("mode", "mst").
			Set("priority", fmt.Sprintf("%d", 4096*(1+r.Intn(8)))).
			Set("region", fmt.Sprintf("R%d", r.Intn(6))))
	}
	if r.Bool(0.2) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeUDLD, "global").Set("enable", "true"))
	}
	if r.Bool(0.25) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeSflow, "global").
			Set("collector", fmt.Sprintf("10.250.3.%d", 1+r.Intn(200))).
			Set("rate", fmt.Sprintf("%d", 1024*(1+r.Intn(8)))))
	}
	if r.Bool(0.25) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeQoS, fmt.Sprintf("PM-%d", r.Intn(5))).
			Set(fmt.Sprintf("class:c%d", r.Intn(4)), fmt.Sprintf("%d", 10+10*r.Intn(6))))
	}
	if r.Bool(0.25) {
		id := fmt.Sprintf("%d", 100+r.Intn(50))
		c.Upsert(confmodel.NewStanza(confmodel.TypeDHCPRelay, "VLAN"+id).
			Set("vlan", id).
			Set(fmt.Sprintf("server:10.250.4.%d", 1+r.Intn(200)), "true"))
	}
	if r.Bool(0.3) {
		s := confmodel.NewStanza(confmodel.TypePrefixList, fmt.Sprintf("PL-%d", r.Intn(10)))
		for k := 0; k < 1+r.Intn(3); k++ {
			s.Set(fmt.Sprintf("rule:%d", (k+1)*5),
				fmt.Sprintf("permit 10.%d.0.0/16", r.Intn(200)))
		}
		c.Upsert(s)
	}
	if r.Bool(0.25) {
		c.Upsert(confmodel.NewStanza(confmodel.TypeRouteMap, fmt.Sprintf("RM-%d", r.Intn(10))).
			Set("entry:10", fmt.Sprintf("permit match:PL-%d", r.Intn(10))))
	}
	return c
}

// Successor returns the next snapshot of c's device: a copy with one
// stanza changed the way a single configuration change leaves it (an
// interface re-described, or one stanza removed). Every other stanza is
// unchanged, so the two configs render to texts that share all their
// other blocks byte for byte — the shape incremental parsing exploits.
func Successor(r *rng.RNG, c *confmodel.Config) *confmodel.Config {
	next := c.Clone()
	all := next.Stanzas()
	if len(all) == 0 {
		return next
	}
	if s := all[r.Intn(len(all))]; s.Type == confmodel.TypeInterface {
		s.Set("description", fmt.Sprintf("changed %d", r.Intn(1000)))
	} else {
		next.Remove(s.Type, s.Name)
	}
	return next
}

// EditLines returns text with one to three random line edits: a line
// deleted, duplicated elsewhere, replaced by or preceded by a line drawn
// from pool, or the trailing newline dropped. Drawing from another
// rendered config's lines makes edits that open, close, split and repeat
// blocks, or break the text at a known line, wherever they land.
func EditLines(r *rng.RNG, text string, pool []string) string {
	lines := strings.SplitAfter(text, "\n")
	draw := func() string { return strings.TrimSuffix(pool[r.Intn(len(pool))], "\n") + "\n" }
	for n := 1 + r.Intn(3); n > 0 && len(lines) > 0; n-- {
		i := r.Intn(len(lines))
		switch r.Intn(5) {
		case 0:
			lines = append(lines[:i:i], lines[i+1:]...)
		case 1:
			j := r.Intn(len(lines))
			lines = append(lines[:j:j], append([]string{lines[i]}, lines[j:]...)...)
		case 2:
			lines[i] = draw()
		case 3:
			lines = append(lines[:i:i], append([]string{draw()}, lines[i:]...)...)
		default:
			lines[len(lines)-1] = strings.TrimSuffix(lines[len(lines)-1], "\n")
		}
	}
	return strings.Join(lines, "")
}
