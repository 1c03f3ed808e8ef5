package ciscoios

import (
	"fmt"
	"strings"
	"testing"

	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
	"mpa/internal/conftest"
	"mpa/internal/rng"
)

// adversarialSeeds builds allocation-heavy inputs for the given dialect:
// thousands of small stanzas (config-map growth), one stanza with
// thousands of options (options-map growth), and a pathologically long
// line (field-buffer growth) — the shapes the zero-copy scanner's scratch
// buffers are sized by.
func adversarialSeeds(d confmodel.Dialect) []string {
	many := confmodel.NewConfig("many")
	for i := 0; i < 2500; i++ {
		many.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, fmt.Sprintf("v%d", i)).
			Set("vlan-id", fmt.Sprint(i)))
	}
	wide := confmodel.NewConfig("wide")
	acl := confmodel.NewStanza(confmodel.TypeACL, "megafilter")
	for i := 0; i < 2000; i++ {
		acl.Set(fmt.Sprintf("rule:%d", i), "permit ip any any")
	}
	wide.Upsert(acl)
	long := confmodel.NewConfig("long")
	long.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "Gi0/1").
		Set("description", strings.TrimSpace(strings.Repeat("pathologically-long-token ", 4000))))
	return []string{d.Render(many), d.Render(wide), d.Render(long)}
}

// FuzzRoundTrip feeds arbitrary text through the parser. Whatever parses
// must round-trip losslessly: rendering is a canonical form, so the
// re-parsed config must equal the original parse, re-render to identical
// bytes, and diff empty against it. The seed corpus (testdata/fuzz plus
// the inline seeds below) covers every stanza type the renderer emits.
func FuzzRoundTrip(f *testing.F) {
	var d Dialect
	r := rng.New(7)
	for i := 0; i < 8; i++ {
		f.Add(d.Render(conftest.RandomConfig(r, conftest.StyleCisco)))
	}
	f.Add("")
	f.Add("hostname edge\n!\ninterface Gi0/1\n no shutdown\n!\n")
	f.Add("interface\n!")
	for _, s := range adversarialSeeds(d) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		cfg, err := d.Parse(text)
		if err != nil {
			return // rejected input: only well-formed text must round-trip
		}
		canon := d.Render(cfg)
		again, err := d.Parse(canon)
		if err != nil {
			t.Fatalf("canonical render does not re-parse: %v\n%s", err, canon)
		}
		if !cfg.Equal(again) {
			t.Fatalf("round trip lost data: %v\n%s", confdiff.Diff(cfg, again), canon)
		}
		if d.Render(again) != canon {
			t.Fatalf("render not canonical:\n%s", canon)
		}
		if diff := confdiff.Diff(cfg, again); len(diff) != 0 {
			t.Fatalf("diff(cfg, reparse) not empty: %v", diff)
		}
		// Scratch equivalence and aliasing safety: a shared-scratch parse
		// must equal the plain parse, and a later parse with the same
		// scratch (which rewrites every transient buffer) must not corrupt
		// the earlier result — parsed configs may only hold immutable
		// strings, never scratch memory.
		sc := confmodel.NewScratch()
		first, err := d.ParseScratch(text, sc)
		if err != nil {
			t.Fatalf("ParseScratch rejects what Parse accepts: %v", err)
		}
		if !cfg.Equal(first) {
			t.Fatalf("ParseScratch disagrees with Parse:\n%v", confdiff.Diff(cfg, first))
		}
		if _, err := d.ParseScratch(canon, sc); err != nil {
			t.Fatalf("second scratch parse failed: %v", err)
		}
		if !cfg.Equal(first) || d.Render(first) != canon {
			t.Fatalf("reusing the scratch corrupted a previously parsed config")
		}
	})
}

// FuzzParseNext checks incremental parsing against the full parse on
// arbitrary snapshot chains: whenever firstText parses, ParseNext(first,
// nextText) must agree with Parse(nextText) (an Equal config, or an
// error with the same message and line number) and leave first rendering
// exactly as before; and when nextText parses, so must
// ParseNext(ParseNext(first, nextText), lastText) with Parse(lastText),
// because the engine feeds ParseNext's results back in and their layouts
// must be right too. The seeds are consecutive snapshots
// (conftest.Successor) plus truncated, duplicated and no-trailing-newline
// variants, and the shapes where the window's edges could be misjudged:
// an edit in the first or the last block, a hostname change, a global
// family line at the window's edge, a key repeated across it, a text
// that is a strict prefix or suffix of the one before, and an error
// inside the window.
func FuzzParseNext(f *testing.F) {
	var d Dialect
	r := rng.New(18)
	for i := 0; i < 8; i++ {
		c := conftest.RandomConfig(r, conftest.StyleCisco)
		prev, next := d.Render(c), d.Render(conftest.Successor(r, c))
		f.Add(prev, next, prev)
		f.Add(prev, next[:len(next)/2], next)
		f.Add(prev, strings.TrimSuffix(prev, "!\nend\n"), prev)
		f.Add(prev, prev+prev, next)
	}
	block := "interface Gi0/1\n description a\n!\n"
	f.Add(block, block+"interface Gi0/1\n description b\n!\n", block)
	f.Add(block, "interface Gi0/1\n description a", block)
	f.Add("interface Gi0/1\n description a", "interface Gi0/1\n description a\n shutdown\n", block)
	f.Add(block, block+" shutdown\n", block)
	f.Add(block, "hostname h\n"+block+"vlan 10\n!\n", block)

	head := "hostname r1\n!\ninterface Gi0/1\n description a\n!\n"
	mid := "ntp server 10.0.0.1\nntp server 10.0.0.2\nsnmp-server community c ro\nsnmp-server host 10.0.0.9\n"
	tail := "vlan 10\n name ten\n!\nvlan 20\n name twenty\n!\nend\n"
	base := head + mid + tail
	edits := []string{
		strings.Replace(base, "description a", "description b", 1), // first block
		strings.Replace(base, "name twenty", "name xx", 1),         // last block
		strings.Replace(base, "hostname r1", "hostname r2", 1),     // hostname
		strings.Replace(base, "hostname r1\n", "", 1),              // hostname removed
		strings.Replace(base, mid, mid+"ntp server 10.0.0.3\n", 1), // family line at the edge
		strings.Replace(base, "vlan 10\n", "snmp-server host 10.0.0.8\nvlan 10\n", 1),
		strings.Replace(base, tail, "interface Gi0/1\n shutdown\n!\n"+tail, 1), // key repeated across the edge
		base[:len(head)+len(mid)],                                              // strict prefix
		base[len(head):],                                                       // strict suffix
		strings.TrimSuffix(base, "\n"),                                         // no trailing newline
		strings.Replace(base, " name ten", " nonsense", 1),                     // error inside the window
		strings.Replace(base, "vlan 20", " vlan 20", 1),                        // a block start turned into an option line
	}
	for _, e := range edits {
		f.Add(base, e, base)
		f.Add(e, base, e)
	}
	f.Fuzz(func(t *testing.T, firstText, nextText, lastText string) {
		sc := confmodel.NewScratch()
		first, err := d.ParseScratch(firstText, sc)
		if err != nil {
			return // ParseNext's prev is always a successful parse
		}
		before := d.Render(first)
		next := checkParseNext(t, first, nextText, sc)
		if d.Render(first) != before {
			t.Fatalf("ParseNext modified its prev config")
		}
		if next != nil {
			checkParseNext(t, next, lastText, sc)
		}
	})
}

// checkParseNext checks ParseNext(prev, text) against Parse(text) and
// returns its config (nil when text does not parse).
func checkParseNext(t *testing.T, prev *confmodel.Config, text string, sc *confmodel.Scratch) *confmodel.Config {
	t.Helper()
	var d Dialect
	want, wantErr := d.Parse(text)
	got, err := d.ParseNext(prev, text, sc)
	switch {
	case (err == nil) != (wantErr == nil):
		t.Fatalf("ParseNext error %v, full parse error %v", err, wantErr)
	case err != nil && err.Error() != wantErr.Error():
		t.Fatalf("ParseNext error %q, full parse error %q", err, wantErr)
	case err == nil && !got.Equal(want):
		t.Fatalf("ParseNext differs from full parse: hostname %q, want %q; diff %v",
			got.Hostname, want.Hostname, confdiff.Diff(want, got))
	}
	return got
}
