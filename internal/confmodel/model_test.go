package confmodel

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// modelNames are the stanza names the model test draws from: the empty
// name, names that are prefixes of one another, and names holding bytes
// below ' ' (which sort before the space that separates a key's type
// identifier from its name).
var modelNames = []string{
	"", "\x00", "\t", "\x1f", "a", "a\x01", "a\tb", "a b", "a-b", "ab",
	"b", "10", "100", "9", "Gi0/1", "Gi0/10", "ge-0/0/1", "global", "z\xff",
}

// modelKey is the key a stanza of type t named name has.
func modelKey(t Type, name string) string { return t.String() + " " + name }

// runConfigOps decodes data into a sequence of Config operations and runs
// them against a map oracle keyed by Key: Upsert replaces an equal key
// (last wins), Get and Remove find by key, Stanzas lists every stanza in
// key order and OfType those of one type. After every operation the config's stanzas must be
// strictly ascending by Key (so each key appears once) and be exactly
// the oracle's.
func runConfigOps(t *testing.T, data []byte) {
	c := NewConfig("dev")
	oracle := map[string]*Stanza{}
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	pick := func() (Type, string) {
		return Type(next() % NumTypes), modelNames[next()%len(modelNames)]
	}
	// stanza builds a stanza the way a parser does (cached key) or as a
	// zero-value literal (no key cache, no options map).
	stanza := func(ty Type, name string) *Stanza {
		v := next()
		if v%3 == 0 {
			return &Stanza{Type: ty, Name: name}
		}
		return NewStanza(ty, name).Set("opt", string(rune('a'+v%26)))
	}
	upsert := func(s *Stanza) {
		c.Upsert(s)
		oracle[s.Key()] = s
	}
	for step := 0; len(data) > 0; step++ {
		switch op := next() % 8; op {
		case 0, 1: // Upsert of one stanza, anywhere in key order
			upsert(stanza(pick()))
		case 2: // ascending run of one type: the append path
			ty := Type(next() % NumTypes)
			names := slices.Clone(modelNames)
			slices.Sort(names)
			names = names[next()%len(names):]
			for _, name := range names[:min(next()%4, len(names))] {
				upsert(stanza(ty, name))
			}
		case 3:
			ty, name := pick()
			_, want := oracle[modelKey(ty, name)]
			if got := c.Remove(ty, name); got != want {
				t.Fatalf("step %d: Remove(%v, %q) = %v, want %v", step, ty, name, got, want)
			}
			delete(oracle, modelKey(ty, name))
		case 4:
			ty, name := pick()
			if got, want := c.Get(ty, name), oracle[modelKey(ty, name)]; got != want {
				t.Fatalf("step %d: Get(%v, %q) = %p, want %p", step, ty, name, got, want)
			}
		case 5:
			ty := Type(next() % NumTypes)
			var want []*Stanza
			for _, s := range oracle {
				if s.Type == ty {
					want = append(want, s)
				}
			}
			slices.SortFunc(want, func(a, b *Stanza) int { return strings.Compare(a.Key(), b.Key()) })
			if got := c.OfType(ty); !slices.Equal(got, want) {
				t.Fatalf("step %d: OfType(%v) = %d stanzas, want %d", step, ty, len(got), len(want))
			}
		case 6:
			cl := c.Clone()
			if !cl.Equal(c) || !c.Equal(cl) {
				t.Fatalf("step %d: Clone is not Equal to its source", step)
			}
			for i, s := range cl.Stanzas() {
				if s == c.Stanzas()[i] || s.Key() != c.Stanzas()[i].Key() {
					t.Fatalf("step %d: Clone shares or misorders stanza %q", step, s.Key())
				}
			}
			if cl.Len() > 0 {
				s := cl.Stanzas()[next()%cl.Len()]
				s.Set("opt", s.Get("opt")+"!")
				if cl.Equal(c) || c.Equal(cl) {
					t.Fatalf("step %d: Equal misses an option change in %q", step, s.Key())
				}
			}
		case 7:
			// A config built from the oracle in map order holds the same
			// stanzas, so it is Equal; renamed, it is not.
			o := NewConfig(c.Hostname)
			for _, s := range oracle {
				o.Upsert(s)
			}
			if !o.Equal(c) || !c.Equal(o) {
				t.Fatalf("step %d: config rebuilt from the oracle is not Equal", step)
			}
			o.Hostname += "x"
			if o.Equal(c) {
				t.Fatalf("step %d: Equal ignores the hostname", step)
			}
		}
		all := c.Stanzas()
		if len(all) != len(oracle) || c.Len() != len(oracle) {
			t.Fatalf("step %d: %d stanzas (Len %d), oracle has %d", step, len(all), c.Len(), len(oracle))
		}
		for i, s := range all {
			if i > 0 && all[i-1].Key() >= s.Key() {
				t.Fatalf("step %d: Stanzas not strictly ascending: %q then %q", step, all[i-1].Key(), s.Key())
			}
			if oracle[s.Key()] != s {
				t.Fatalf("step %d: stanza %q is not the oracle's", step, s.Key())
			}
		}
	}
}

// TestConfigMatchesMapModel runs random operation sequences against the
// map oracle.
func TestConfigMatchesMapModel(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 16+r.Intn(600))
		r.Read(data)
		runConfigOps(t, data)
	}
}

// FuzzConfigOps is TestConfigMatchesMapModel over fuzzer-chosen operation
// sequences.
func FuzzConfigOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 4, 5, 6, 7, 8, 9, 0, 10, 11, 12})
	// An ascending run, then lookups, removals and views of that type.
	f.Add([]byte{2, 1, 0, 3, 7, 4, 1, 4, 5, 1, 3, 1, 4, 6, 2, 7})
	// The same key upserted twice (last wins), then removed.
	f.Add([]byte{0, 1, 5, 4, 0, 1, 5, 6, 3, 1, 5, 4, 1, 5})
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		data := make([]byte, 64+r.Intn(256))
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(runConfigOps)
}
