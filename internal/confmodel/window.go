package confmodel

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// Incremental parsing. Consecutive snapshots of one device are nearly
// identical: a change rewrites a few stanzas, so the two texts share a
// long prefix and a long suffix. A dialect parses text as a sequence of
// top-level blocks (a Cisco stanza header with its option lines, a JunOS
// brace block, a single-line command), and a parsed config keeps that
// sequence as its layout: each block's end offset and the stanza it
// produced. ParseNext parses only the window between the prefix and the
// suffix the text has in common with the previous snapshot's, snapped
// out to block boundaries, and shares the previous config's stanzas for
// every block outside it.

// block is one top-level block of a parsed config's text.
type block struct {
	end int32   // offset in the text just past the block
	s   *Stanza // the stanza the block produced, nil if none
}

// layout is the text a config was parsed from and its blocks in text
// order. A config carries one only when each of its stanzas was produced
// by one block or by one run of adjacent blocks (no key repeats, and no
// stanza built up line by line is scattered), so that the blocks outside
// a window determine exactly the stanzas outside it. blocks is nil when
// there is no layout. Offsets are int32, so a text of 2 GiB or more
// has no layout.
type layout struct {
	text     string
	blocks   []block
	host     int    // index of the last block that sets the hostname, -1 if none
	hostname string // the hostname that block sets, "" if none
}

// TypeSet is a set of stanza types.
type TypeSet uint32

// TypesOf returns the set of the given types.
func TypesOf(ts ...Type) TypeSet {
	var set TypeSet
	for _, t := range ts {
		set |= 1 << t
	}
	return set
}

// holds reports whether s is a stanza of a type in the set.
func (set TypeSet) holds(s *Stanza) bool { return s != nil && set&(1<<s.Type) != 0 }

// Grammar is what the window planner must know of a dialect's blocks.
type Grammar struct {
	// Opens reports whether the line at the start of rest opens a block:
	// whether, after a block of the previous text ends there, a full
	// parse of the new text ends a block there too. nil means any line
	// does.
	Opens func(rest string) bool

	// Merged holds the stanza types that several single-line blocks
	// build up together (Cisco's global command families). The window
	// never ends next to a block of these types, so a family's run of
	// lines is either parsed whole or shared whole.
	Merged TypeSet
}

// Window is the plan and record of one parse. A dialect's parse asks
// where to start (Start), builds into Config, reports each top-level
// block it completes (Block), and at each line start where no block is
// open asks whether the rest of the text is the previous snapshot's
// shared suffix (Resume), stopping when it is.
type Window struct {
	sc   *Scratch
	g    *Grammar
	text string

	prev  *Config // nil for a full parse
	start int     // offset where the parse starts
	i, j  int     // prev's blocks [0,i) are shared; [j,len) may end the text
	delta int     // len(text) minus the length of prev's text
	next  int     // offset in text where block j starts; MaxInt if none
	done  bool    // Resume matched: prev's blocks [j,len) end the text

	blocks []block // the blocks parsed, in text order
	last   int     // end of the last block recorded
	host   int     // index in blocks of the last that sets the hostname, -1 if none
	runs   int     // runs of adjacent blocks producing the same stanza
}

// ParseNext parses text as the successor of prev with a dialect's parse
// function (see ScratchParser): parse builds the config over the part of
// text the window plans, and the window adds the rest from prev. When
// the window cannot vouch for the result (a key in the window is also a
// stanza's outside it, or the hostname line it removed was not the
// only one), the whole text is parsed instead. A nil sc allocates one.
func ParseNext(prev *Config, text string, sc *Scratch, g *Grammar, parse func(w *Window, text string, sc *Scratch) (*Config, error)) (*Config, error) {
	if sc == nil {
		sc = NewScratch()
	}
	for {
		w := sc.window(prev, text, g)
		c, err := parse(w, text, sc)
		if err != nil {
			// The blocks before the window parsed in prev, so the
			// window holds a full parse's first error.
			return nil, err
		}
		if c = w.finish(c); c != nil || prev == nil {
			return c, nil
		}
		prev = nil
	}
}

// window plans a parse of text as the successor of prev: a full parse
// when prev is nil or has no layout, or text is too long for one.
func (sc *Scratch) window(prev *Config, text string, g *Grammar) *Window {
	sc.Reset()
	w := &sc.win
	*w = Window{sc: sc, g: g, text: text, blocks: w.blocks[:0], host: -1, next: math.MaxInt}
	if prev == nil || prev.lay.blocks == nil || len(text) > math.MaxInt32 {
		return w
	}
	pt, bl := prev.lay.text, prev.lay.blocks
	p := commonPrefix(pt, text)
	s := commonSuffix(pt[p:], text[p:])
	w.prev, w.delta = prev, len(text)-len(pt)

	// Share the blocks that end inside the common prefix, less the last
	// one when the line after it would continue it in text, and less a
	// run of merged blocks at the end.
	i := sort.Search(len(bl), func(k int) bool { return int(bl[k].end) > p })
	if i > 0 && !w.opens(int(bl[i-1].end)) {
		i--
	}
	for i > 0 && g.Merged.holds(bl[i-1].s) {
		i--
	}
	w.i, w.start = i, w.startOf(i)
	w.last = w.start

	// The suffix may resume at the first block that starts inside the
	// common suffix (so the line before it ends there in both texts).
	w.j = i + sort.Search(len(bl)-i, func(k int) bool { return w.startOf(i+k) > len(pt)-s })
	w.skipMerged()
	return w
}

// opens reports whether a block of prev ending at offset b, inside the
// common prefix, ends there in a full parse of the text too.
func (w *Window) opens(b int) bool {
	if b == len(w.text) {
		return true
	}
	return w.text[b-1] == '\n' && (w.g.Opens == nil || w.g.Opens(w.text[b:]))
}

// startOf returns the offset in prev's text where its k-th block starts.
func (w *Window) startOf(k int) int {
	if k == 0 {
		return 0
	}
	return int(w.prev.lay.blocks[k-1].end)
}

// skipMerged moves the suffix candidate past merged blocks.
func (w *Window) skipMerged() {
	bl := w.prev.lay.blocks
	for w.j < len(bl) && w.g.Merged.holds(bl[w.j].s) {
		w.j++
	}
	w.next = math.MaxInt
	if w.j < len(bl) {
		w.next = w.startOf(w.j) + w.delta
	}
}

// Start returns the offset at which the parse starts and the number of
// lines before it.
func (w *Window) Start() (offset, lines int) {
	return w.start, strings.Count(w.text[:w.start], "\n")
}

// Config returns the config the parse builds into. A full parse's
// stanza slice is pre-sized to the last finished parse, so re-parsing a
// near-identical snapshot never grows it; a windowed parse's holds only
// the window's stanzas, in a buffer the scratch reuses, until the window
// is finished.
func (w *Window) Config() *Config {
	if w.prev == nil {
		return &Config{stanzas: make([]*Stanza, 0, w.sc.cfgHint)}
	}
	return &Config{stanzas: w.sc.part[:0]}
}

// Block records that a top-level block ends at offset end, having
// produced stanza s (nil if none) and, when host is set, the hostname.
// The block spans from the end of the one before; an empty one is not
// recorded.
func (w *Window) Block(end int, s *Stanza, host bool) {
	if end <= w.last {
		return
	}
	if s != nil && (len(w.blocks) == 0 || w.blocks[len(w.blocks)-1].s != s) {
		w.runs++
	}
	if host {
		w.host = len(w.blocks)
	}
	w.blocks = append(w.blocks, block{end: int32(end), s: s})
	w.last = end
}

// Resume reports whether the rest of the text from offset at, a line
// start where no block is open, is the previous snapshot's suffix, which
// the parse then leaves to the window.
func (w *Window) Resume(at int) bool {
	return at >= w.next && w.resume(at)
}

// resume is Resume past the candidate: it moves the candidate to the
// first block that starts at or after at.
func (w *Window) resume(at int) bool {
	for at > w.next {
		w.j++
		w.skipMerged()
	}
	if at < w.next {
		return false
	}
	w.Block(at, nil, false)
	w.done = true
	return true
}

// finish completes the config c the parse built, or returns nil when
// the window cannot vouch for it and the whole text must be parsed.
func (w *Window) finish(c *Config) *Config {
	if w.prev == nil {
		if w.runs == len(c.stanzas) && len(w.text) <= math.MaxInt32 {
			c.lay = layout{text: w.text, blocks: append(make([]block, 0, len(w.blocks)), w.blocks...),
				host: w.host, hostname: c.Hostname}
		}
		w.sc.hint(len(c.stanzas), c.stanzas)
		return c
	}
	ws := c.stanzas
	defer func() { w.sc.part = ws[:0] }()
	defer clear(ws)

	pl := &w.prev.lay
	bl := pl.blocks
	j := len(bl)
	if w.done {
		j = w.j
	}
	// The hostname is the one the last hostname-setting block sets.
	host, hostname := -1, ""
	switch {
	case pl.host >= j:
		host, hostname = pl.host-j+w.i+len(w.blocks), pl.hostname
	case w.host >= 0:
		host, hostname = w.i+w.host, c.Hostname
	case pl.host < w.i:
		host, hostname = pl.host, pl.hostname
	default:
		return nil // the window dropped the last one and the one before is not recorded
	}
	stanzas, ok := w.merge(bl[w.i:j], ws)
	if !ok {
		return nil
	}
	out := &Config{Hostname: hostname, stanzas: stanzas}
	if w.runs == len(ws) {
		nb := make([]block, 0, w.i+len(w.blocks)+len(bl)-j)
		nb = append(append(nb, bl[:w.i]...), w.blocks...)
		for _, b := range bl[j:] {
			b.end += int32(w.delta)
			nb = append(nb, b)
		}
		out.lay = layout{text: w.text, blocks: nb, host: host, hostname: hostname}
	}
	w.sc.hint(len(stanzas), ws)
	return out
}

// merge returns prev's stanzas less those produced by pwin, prev's
// blocks inside the window, plus ws, the window's stanzas, in key order.
// It reports false when a key of ws is also a stanza's outside the
// window: a full parse resolves that by text order (the last block wins,
// or a family is built up across the window's edge).
func (w *Window) merge(pwin []block, ws []*Stanza) ([]*Stanza, bool) {
	ps := w.prev.stanzas
	drop := w.sc.drop[:0]
	for _, b := range pwin {
		if b.s == nil {
			continue
		}
		k, ok := w.prev.index(b.s.Type.String(), b.s.Name)
		if !ok || ps[k] != b.s {
			return nil, false
		}
		drop = append(drop, k)
	}
	w.sc.drop = drop
	slices.Sort(drop)
	drop = slices.Compact(drop) // a merged run's blocks share one stanza

	out := make([]*Stanza, 0, len(ps)-len(drop)+len(ws))
	pos, d := 0, 0
	// keep appends ps[pos:to] to out, less the dropped stanzas.
	keep := func(to int) {
		for pos < to {
			stop := to
			if d < len(drop) && drop[d] < to {
				stop = drop[d]
			}
			out = append(out, ps[pos:stop]...)
			pos = stop
			if stop < to {
				pos++
				d++
			}
		}
	}
	for _, s := range ws {
		ts := s.Type.String()
		k := pos + searchStanzas(ps[pos:], ts, s.Name)
		keep(k)
		if k < len(ps) && ps[k].cmp(ts, s.Name) == 0 && (d == len(drop) || drop[d] != k) {
			return nil, false
		}
		out = append(out, s)
	}
	keep(len(ps))
	return out, true
}

// commonPrefix returns the length of the longest common prefix of a and
// b. It compares 1 KiB and then 64-byte chunks as strings (one memequal
// each) and only the last chunk that differs byte by byte.
func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for _, chunk := range [...]int{1024, 64} {
		for i+chunk <= n && a[i:i+chunk] == b[i:i+chunk] {
			i += chunk
		}
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a and
// b, comparing like commonPrefix from the end.
func commonSuffix(a, b string) int {
	n := min(len(a), len(b))
	i := 0
	for _, chunk := range [...]int{1024, 64} {
		for i+chunk <= n && a[len(a)-i-chunk:len(a)-i] == b[len(b)-i-chunk:len(b)-i] {
			i += chunk
		}
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}
