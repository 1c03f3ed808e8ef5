package ciscoios

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
// re-rendered text identical (rendering is a canonical form).
func TestRoundTripProperty(t *testing.T) {
	var d Dialect
	r := rng.New(2024)
	for i := 0; i < 300; i++ {
		orig := conftest.RandomConfig(r, conftest.StyleCisco)
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

// TestDiffProperty checks that an arbitrary single-stanza mutation is
// detected by the render/parse/diff pipeline with the correct type.
func TestDiffProperty(t *testing.T) {
	var d Dialect
	r := rng.New(555)
	for i := 0; i < 200; i++ {
		before := conftest.RandomConfig(r, conftest.StyleCisco)
		after := before.Clone()
		stanzas := after.Stanzas()
		s := stanzas[r.Intn(len(stanzas))]
		s.Set("description", "mutated")
		pb, err := d.Parse(d.Render(before))
		if err != nil {
			t.Fatal(err)
		}
		pa, err := d.Parse(d.Render(after))
		if err != nil {
			t.Fatal(err)
		}
		diff := confdiff.Diff(pb, pa)
		// Descriptions only render for some stanza types; when they do,
		// exactly one change of the mutated stanza's type must appear.
		if len(diff) > 1 {
			t.Fatalf("iteration %d: %d changes from one mutation: %v", i, len(diff), diff)
		}
		if len(diff) == 1 && diff[0].Type != s.Type {
			t.Fatalf("iteration %d: change typed %v, want %v", i, diff[0].Type, s.Type)
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
		text := d.Render(conftest.RandomConfig(r, conftest.StyleCisco))
		pool := strings.SplitAfter(d.Render(conftest.RandomConfig(r, conftest.StyleCisco)), "\n")
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
