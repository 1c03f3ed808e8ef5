package confmodel

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// ScratchParser is implemented by dialects whose parser can reuse a
// caller-provided Scratch across snapshots (both built-in dialects do).
//
// ParseNext parses text as the snapshot that follows prev, a config the
// same dialect parsed earlier (nil for a device's first snapshot). Only
// the window of text between what it has in common with prev's text at
// the start and at the end is parsed; prev's immutable stanzas for the
// top-level blocks outside that window are shared into the result (see
// Window). prev is only read. ParseScratch is ParseNext with no previous
// config. For every input, both must be equivalent to Parse: an Equal
// config, or an error with the same message and line number.
type ScratchParser interface {
	ParseScratch(text string, sc *Scratch) (*Config, error)
	ParseNext(prev *Config, text string, sc *Scratch) (*Config, error)
}

// Scratch holds the reusable per-worker buffers behind the zero-copy
// parse→model→diff hot path: a field-splitting buffer that replaces the
// per-line []string strings.Fields allocates, a byte buffer for building
// lookup keys and joined values without intermediate strings, and an
// interned-string table that dedupes the keywords, stanza keys, and
// option keys that repeat across every snapshot of a device history.
//
// Ownership and retention rules (see DESIGN.md "hot path memory model"):
//
//   - A Scratch is owned by exactly one goroutine at a time. The
//     inference engine gives each worker its own via par.MapLocal.
//   - Strings obtained from Intern*, and every string stored into a
//     parsed Config, are immutable and safe to retain indefinitely —
//     they alias either the (immutable) input text or the interner
//     table, never a mutable buffer.
//   - The []string returned by Fields and the []byte from the join
//     helpers are valid only until the next Scratch call; Reset (or any
//     further use) invalidates them. Never store them in a Config.
type Scratch struct {
	fields   []string
	buf      []byte
	interned map[string]string

	// Sizing hints recorded by each finished parse: successive
	// snapshots of one device are nearly identical, so the previous
	// parse's stanza count and per-stanza option counts pre-size the next
	// parse's stanza slice and option maps exactly, avoiding incremental
	// growth (which allocates ~2x the final space). Hints only size
	// storage — they never change contents.
	cfgHint int
	optHint map[string]int

	// win is the plan of the parse in progress (see Window), part the
	// stanza buffer of a windowed parse's config and drop the indexes of
	// the previous config's stanzas it replaces; all are reused from one
	// parse to the next.
	win  Window
	part []*Stanza
	drop []int
}

// NewScratch returns an empty scratch ready for use.
func NewScratch() *Scratch {
	return &Scratch{interned: map[string]string{}, optHint: map[string]int{}}
}

// Reset invalidates the transient buffers (fields, join bytes) while
// keeping their capacity and the interner table. Call it between
// independent uses; retained parsed strings stay valid (they never alias
// the transient buffers).
func (sc *Scratch) Reset() {
	sc.fields = sc.fields[:0]
	sc.buf = sc.buf[:0]
}

// asciiSpace mirrors the ASCII fast path of strings.Fields.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// Fields splits s around runs of white space exactly like strings.Fields,
// but into a reused buffer: the returned slice and its backing array are
// valid only until the next call. The elements are substrings of s and
// safe to retain.
func (sc *Scratch) Fields(s string) []string {
	sc.fields = sc.fields[:0]
	i := 0
	for i < len(s) {
		c := s[i]
		if c >= utf8.RuneSelf {
			return sc.fieldsUnicode(s)
		}
		if asciiSpace[c] == 1 {
			i++
			continue
		}
		start := i
		for i < len(s) {
			c = s[i]
			if c >= utf8.RuneSelf {
				return sc.fieldsUnicode(s)
			}
			if asciiSpace[c] == 1 {
				break
			}
			i++
		}
		sc.fields = append(sc.fields, s[start:i])
	}
	return sc.fields
}

// fieldsUnicode is the full-Unicode fallback, matching strings.Fields on
// inputs containing non-ASCII space (or any non-ASCII) characters.
func (sc *Scratch) fieldsUnicode(s string) []string {
	sc.fields = sc.fields[:0]
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				sc.fields = append(sc.fields, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		sc.fields = append(sc.fields, s[start:])
	}
	return sc.fields
}

// Intern2 returns a canonical instance of a+b without allocating the
// concatenation when it was interned before (the common case for option
// keys like "rule:"+seq, which repeat across every snapshot).
func (sc *Scratch) Intern2(a, b string) string {
	sc.buf = append(append(sc.buf[:0], a...), b...)
	return sc.internBuf()
}

// InternJoin returns a canonical instance of strings.Join(fields, " "),
// allocating only on first sight.
func (sc *Scratch) InternJoin(fields []string) string {
	sc.buf = sc.buf[:0]
	for i, f := range fields {
		if i > 0 {
			sc.buf = append(sc.buf, ' ')
		}
		sc.buf = append(sc.buf, f...)
	}
	return sc.internBuf()
}

// InternJoinTrim is InternJoin followed by strings.Trim(x, cutset) —
// used by the junos parser for quoted values — performed inside the
// buffer so only a first-sight value allocates.
func (sc *Scratch) InternJoinTrim(fields []string, cutset string) string {
	sc.buf = sc.buf[:0]
	for i, f := range fields {
		if i > 0 {
			sc.buf = append(sc.buf, ' ')
		}
		sc.buf = append(sc.buf, f...)
	}
	b := sc.buf
	for len(b) > 0 && strings.IndexByte(cutset, b[0]) >= 0 {
		b = b[1:]
	}
	for len(b) > 0 && strings.IndexByte(cutset, b[len(b)-1]) >= 0 {
		b = b[:len(b)-1]
	}
	if v, ok := sc.interned[string(b)]; ok {
		return v
	}
	v := string(b)
	sc.interned[v] = v
	return v
}

// internBuf interns the current contents of sc.buf. The map lookup with
// a string([]byte) key does not allocate; only a miss copies the bytes.
func (sc *Scratch) internBuf() string {
	if v, ok := sc.interned[string(sc.buf)]; ok {
		return v
	}
	v := string(sc.buf)
	sc.interned[v] = v
	return v
}

// internKey interns the stanza key for (t, name).
func (sc *Scratch) internKey(t Type, name string) string {
	ts := t.String()
	sc.buf = append(append(append(sc.buf[:0], ts...), ' '), name...)
	return sc.internBuf()
}

// NewStanza is NewStanza with the stanza key taken from the interner and
// the options map pre-sized from the previous parse (or allocated
// lazily on first Set when the stanza wasn't seen before), saving the
// map-growth allocations per stanza on the parse hot path.
func (sc *Scratch) NewStanza(t Type, name string) *Stanza {
	key := sc.internKey(t, name)
	s := &Stanza{Type: t, Name: name, key: key}
	if hint := sc.optHint[key]; hint > 0 {
		s.Options = make(map[string]string, hint)
	}
	return s
}

// hint records sizing hints from a finished parse of n stanzas, of which
// parsed were built by this parse (the rest were shared), for the next
// Window.Config and NewStanza.
func (sc *Scratch) hint(n int, parsed []*Stanza) {
	sc.cfgHint = n
	for _, s := range parsed {
		if n := len(s.Options); n > 0 {
			sc.optHint[s.Key()] = n
		}
	}
}
