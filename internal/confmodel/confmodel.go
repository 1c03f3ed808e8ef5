// Package confmodel defines the vendor-neutral device-configuration model
// the reproduction's Batfish-style pipeline is built on (paper §2.2).
//
// Configuration information is arranged as stanzas, each containing a set
// of options and values pertaining to a particular construct — a specific
// interface, VLAN, routing instance, or ACL. A stanza is identified by a
// type and a name. Vendor dialects (internal/ciscoios, internal/junos)
// render a Config to concrete configuration text and parse text back;
// stanza types that serve the same purpose on different vendors (e.g.
// Cisco `ip access-list` vs Juniper `firewall filter`) map to one
// vendor-agnostic Type here.
package confmodel

import (
	"slices"
	"strings"
)

// Type is a vendor-agnostic stanza type (paper §2.2: "we manually identify
// stanza types on different vendors that serve the same purpose, and we
// convert these to a vendor-agnostic type identifier").
type Type int

// Vendor-agnostic stanza types.
const (
	TypeInterface Type = iota
	TypeVLAN
	TypeACL
	TypeBGP
	TypeOSPF
	TypePool // load-balancer server pool
	TypeUser
	TypeSNMP
	TypeNTP
	TypeLogging
	TypeQoS
	TypeSflow
	TypeSTP
	TypeUDLD
	TypeDHCPRelay
	TypePrefixList
	TypeRouteMap
	TypeOther
	numTypes
)

// NumTypes is the number of distinct vendor-agnostic stanza types.
const NumTypes = int(numTypes)

// String returns the canonical lower-case type identifier.
func (t Type) String() string {
	switch t {
	case TypeInterface:
		return "interface"
	case TypeVLAN:
		return "vlan"
	case TypeACL:
		return "acl"
	case TypeBGP:
		return "bgp"
	case TypeOSPF:
		return "ospf"
	case TypePool:
		return "pool"
	case TypeUser:
		return "user"
	case TypeSNMP:
		return "snmp"
	case TypeNTP:
		return "ntp"
	case TypeLogging:
		return "logging"
	case TypeQoS:
		return "qos"
	case TypeSflow:
		return "sflow"
	case TypeSTP:
		return "stp"
	case TypeUDLD:
		return "udld"
	case TypeDHCPRelay:
		return "dhcp-relay"
	case TypePrefixList:
		return "prefix-list"
	case TypeRouteMap:
		return "route-map"
	default:
		return "other"
	}
}

// IsRouter reports whether the stanza type configures a routing protocol
// (the paper's "router stanza" change category).
func (t Type) IsRouter() bool { return t == TypeBGP || t == TypeOSPF }

// Stanza is one configuration construct: a type, a name, and a set of
// option key/value pairs. Option keys are semantic (dialect-independent);
// dialects translate them to and from concrete syntax. Examples:
//
//	interface: "description", "address", "access-vlan", "acl-in",
//	           "lag-group", "mtu"
//	vlan:      "vlan-id", "description", "member:<ifname>" (Juniper places
//	           interface membership under the vlan stanza; Cisco places it
//	           under the interface — the paper's cross-vendor typing quirk)
//	acl:       "rule:<seq>" -> "<action> <proto> <src> <dst>"
//	bgp:       "local-as", "neighbor:<ip>" -> remote AS,
//	           "network:<prefix>", "route-map:<name>" -> direction
//	ospf:      "area", "network:<prefix>"
//	pool:      "member:<ip:port>" -> weight, "monitor"
//
// A parsed stanza is immutable: once the parser that built it returns,
// nothing may call Set or Delete on it, because a dialect's ParseNext
// shares every unchanged stanza of a device's previous snapshot with the
// next one, so one *Stanza may belong to many configs. Code that needs a
// modified stanza works on a Clone.
type Stanza struct {
	Type    Type
	Name    string
	Options map[string]string

	// key caches Key(). It is computed once at construction (NewStanza,
	// Scratch.NewStanza) and never written afterwards, so concurrent
	// readers of a shared parsed config are race-free. Type and Name are
	// set at construction and must not be reassigned.
	key string
}

// NewStanza returns an empty stanza of the given type and name.
func NewStanza(t Type, name string) *Stanza {
	return &Stanza{Type: t, Name: name, Options: map[string]string{},
		key: t.String() + " " + name}
}

// Key returns the stanza identity used for diffing: type plus name. The
// key is cached at construction; zero-value literals fall back to
// computing it on every call without caching (writing the cache lazily
// would race on configs shared across workers).
func (s *Stanza) Key() string {
	if s.key != "" {
		return s.key
	}
	return s.Type.String() + " " + s.Name
}

// Set sets an option and returns the stanza for chaining.
func (s *Stanza) Set(key, value string) *Stanza {
	if s.Options == nil {
		s.Options = map[string]string{}
	}
	s.Options[key] = value
	return s
}

// Get returns the option value, or "".
func (s *Stanza) Get(key string) string { return s.Options[key] }

// Delete removes an option.
func (s *Stanza) Delete(key string) { delete(s.Options, key) }

// Clone returns a deep copy of the stanza.
func (s *Stanza) Clone() *Stanza {
	c := &Stanza{Type: s.Type, Name: s.Name, key: s.Key(),
		Options: make(map[string]string, len(s.Options))}
	for k, v := range s.Options {
		c.Options[k] = v
	}
	return c
}

// Equal reports whether two stanzas have identical identity and options.
func (s *Stanza) Equal(o *Stanza) bool {
	if s.Type != o.Type || s.Name != o.Name || len(s.Options) != len(o.Options) {
		return false
	}
	for k, v := range s.Options {
		if ov, ok := o.Options[k]; !ok || ov != v {
			return false
		}
	}
	return true
}

// OptionsWithPrefix returns the options whose keys share the given prefix
// (e.g. "neighbor:") as a new map from the key with the prefix stripped to
// the value. A map has no order: callers that need one sort its keys.
func (s *Stanza) OptionsWithPrefix(prefix string) map[string]string {
	out := map[string]string{}
	for k, v := range s.Options {
		if strings.HasPrefix(k, prefix) {
			out[strings.TrimPrefix(k, prefix)] = v
		}
	}
	return out
}

// Config is a device's configuration state: a set of stanzas with unique
// identities, plus the device hostname. The stanzas are held in one slice
// sorted by Key, which is the order Stanzas hands out.
type Config struct {
	Hostname string
	stanzas  []*Stanza // ascending by Key, keys unique

	// lay is the text a dialect parsed the config from and its top-level
	// blocks (see Window); empty for a config built in code, and dropped
	// by Upsert and Remove.
	lay layout
}

// NewConfig returns an empty configuration for the given hostname.
func NewConfig(hostname string) *Config {
	return &Config{Hostname: hostname}
}

// cmp compares s's key with the key of a stanza of type identifier ts
// named name, without building either key. Comparing the type identifier
// first and the name second is the same order as comparing the keys:
// the identifier is followed by a space in the key, and a space sorts
// before every identifier character.
func (s *Stanza) cmp(ts, name string) int {
	if c := strings.Compare(s.Type.String(), ts); c != 0 {
		return c
	}
	return strings.Compare(s.Name, name)
}

// searchStanzas returns the index of the first stanza in the key-sorted
// ss whose key is not below the key of (ts, name).
func searchStanzas(ss []*Stanza, ts, name string) int {
	lo, hi := 0, len(ss)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ss[m].cmp(ts, name) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// index returns the position of the stanza with type identifier ts and
// the given name, or where it would be inserted, and whether it is there.
func (c *Config) index(ts, name string) (int, bool) {
	i := searchStanzas(c.stanzas, ts, name)
	return i, i < len(c.stanzas) && c.stanzas[i].cmp(ts, name) == 0
}

// Upsert inserts or replaces a stanza: a stanza with the same key is
// replaced, so the last one upserted wins. Parsers upsert in text order,
// which is key order for rendered text, so the common case appends.
func (c *Config) Upsert(s *Stanza) {
	c.dropLayout()
	ts := s.Type.String()
	if n := len(c.stanzas); n == 0 || c.stanzas[n-1].cmp(ts, s.Name) < 0 {
		c.stanzas = append(c.stanzas, s)
		return
	}
	i, ok := c.index(ts, s.Name)
	if ok {
		c.stanzas[i] = s
		return
	}
	c.stanzas = slices.Insert(c.stanzas, i, s)
}

// dropLayout forgets the text the config was parsed from, which it no
// longer matches once modified.
func (c *Config) dropLayout() {
	if c.lay.blocks != nil {
		c.lay = layout{}
	}
}

// Get returns the stanza with the given type and name, or nil. It
// allocates nothing.
func (c *Config) Get(t Type, name string) *Stanza {
	if i, ok := c.index(t.String(), name); ok {
		return c.stanzas[i]
	}
	return nil
}

// Remove deletes the stanza with the given type and name; it reports
// whether a stanza was removed.
func (c *Config) Remove(t Type, name string) bool {
	i, ok := c.index(t.String(), name)
	if ok {
		c.stanzas = slices.Delete(c.stanzas, i, i+1)
		c.dropLayout()
	}
	return ok
}

// Len returns the number of stanzas.
func (c *Config) Len() int { return len(c.stanzas) }

// Stanzas returns all stanzas in deterministic (key-sorted) order. The
// result is the config's own slice, not a copy: callers must not modify
// it, and an Upsert or Remove on the config invalidates it.
func (c *Config) Stanzas() []*Stanza {
	return c.stanzas[:len(c.stanzas):len(c.stanzas)]
}

// OfType returns all stanzas of the given type in deterministic order.
// The result is a sub-slice of Stanzas (stanzas of one type are
// contiguous there, because every key starts with the type identifier
// and a space, which sorts before any identifier character), with the
// same rules: callers must not modify it, and an Upsert or Remove on the
// config invalidates it.
func (c *Config) OfType(t Type) []*Stanza {
	ts := t.String()
	lo := searchStanzas(c.stanzas, ts, "")
	hi := lo
	for hi < len(c.stanzas) && c.stanzas[hi].Type.String() == ts {
		hi++
	}
	return c.stanzas[lo:hi:hi]
}

// Clone returns a deep copy of the configuration, without the text
// layout of a parsed config: the copy is made to be modified.
func (c *Config) Clone() *Config {
	out := &Config{Hostname: c.Hostname, stanzas: make([]*Stanza, len(c.stanzas))}
	for i, s := range c.stanzas {
		out.stanzas[i] = s.Clone()
	}
	return out
}

// Equal reports whether two configurations contain identical stanzas.
// Both are key-sorted, so they are compared position by position; a
// stanza shared between the two (see ScratchParser) is equal to itself
// without comparing its options. The text layout is not compared.
func (c *Config) Equal(o *Config) bool {
	if c.Hostname != o.Hostname || len(c.stanzas) != len(o.stanzas) {
		return false
	}
	for i, s := range c.stanzas {
		if os := o.stanzas[i]; s != os && !s.Equal(os) {
			return false
		}
	}
	return true
}

// Fingerprint returns a cheap deterministic digest of the configuration,
// used by the synthetic generator to tell whether a mutation changed the
// device's configuration at all. The digest is the FNV-1a hash
// of the byte stream `key{k=v;...}` per sorted stanza (option keys
// sorted), hashed incrementally so no intermediate string is built.
func (c *Config) Fingerprint() string {
	const offset = 14695981039346656037
	var h uint64 = offset
	var keys []string // one buffer reused across stanzas
	for _, s := range c.Stanzas() {
		h = fnvString(h, s.Key())
		h = fnvByte(h, '{')
		keys = keys[:0]
		for k := range s.Options {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			h = fnvString(h, k)
			h = fnvByte(h, '=')
			h = fnvString(h, s.Options[k])
			h = fnvByte(h, ';')
		}
		h = fnvByte(h, '}')
	}
	return hex16(h)
}

// fnvString folds s into a running FNV-1a 64-bit hash.
func fnvString(h uint64, s string) uint64 {
	const prime = 1099511628211
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// fnvByte folds one byte into a running FNV-1a 64-bit hash.
func fnvByte(h uint64, b byte) uint64 {
	const prime = 1099511628211
	h ^= uint64(b)
	h *= prime
	return h
}

// hex16 formats h as 16 lower-case hex digits (fmt.Sprintf("%016x", h)
// without the fmt machinery).
func hex16(h uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[h&0xf]
		h >>= 4
	}
	return string(b[:])
}
