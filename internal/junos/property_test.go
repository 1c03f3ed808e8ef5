package junos

import (
	"strings"
	"testing"

	"mpa/internal/confdiff"
	"mpa/internal/confmodel"
	"mpa/internal/conftest"
	"mpa/internal/rng"
)

// TestRoundTripProperty renders and re-parses hundreds of random
// well-formed configurations: the round trip must be lossless and the
// re-rendered text identical.
func TestRoundTripProperty(t *testing.T) {
	var d Dialect
	r := rng.New(4096)
	for i := 0; i < 300; i++ {
		orig := conftest.RandomConfig(r, conftest.StyleJuniper)
		text := d.Render(orig)
		parsed, err := d.Parse(text)
		if err != nil {
			t.Fatalf("iteration %d: parse failed: %v\n%s", i, err, text)
		}
		if !orig.Equal(parsed) {
			diff := confdiff.Diff(orig, parsed)
			t.Fatalf("iteration %d: round trip lost data: %v\n%s", i, diff, text)
		}
		if again := d.Render(parsed); again != text {
			t.Fatalf("iteration %d: render not canonical", i)
		}
	}
}

// TestCrossVendorTypeAgreement renders the same logical construct set in
// both dialects and checks the vendor-agnostic type census matches —
// except for VLAN membership, which the paper notes is typed differently.
func TestCrossVendorTypeAgreement(t *testing.T) {
	var jd Dialect
	r := rng.New(99)
	for i := 0; i < 100; i++ {
		c := conftest.RandomConfig(r, conftest.StyleJuniper)
		parsed, err := jd.Parse(jd.Render(c))
		if err != nil {
			t.Fatal(err)
		}
		// Type census must be identical after the round trip.
		want := map[string]int{}
		for _, s := range c.Stanzas() {
			want[s.Type.String()]++
		}
		got := map[string]int{}
		for _, s := range parsed.Stanzas() {
			got[s.Type.String()]++
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("iteration %d: type %s count %d != %d", i, k, got[k], v)
			}
		}
	}
}

// TestParseNextLineEditsProperty chains ParseNext over random line edits
// of rendered configs (conftest.EditLines): each text is parsed as the
// successor of the last one that parsed, whose config is itself a
// ParseNext result, and must agree with a full parse, errors included.
func TestParseNextLineEditsProperty(t *testing.T) {
	var d Dialect
	r := rng.New(29)
	sc := confmodel.NewScratch()
	parsed := 0
	for i := 0; i < 600; i++ {
		text := d.Render(conftest.RandomConfig(r, conftest.StyleJuniper))
		pool := strings.SplitAfter(d.Render(conftest.RandomConfig(r, conftest.StyleJuniper)), "\n")
		prev, err := d.ParseScratch(text, sc)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			next := conftest.EditLines(r, text, pool)
			if c := checkParseNext(t, prev, next, sc); c != nil {
				text, prev = next, c
				parsed++
			}
		}
	}
	if parsed < 500 {
		t.Fatalf("only %d edited texts parsed: the edits exercise little", parsed)
	}
}
