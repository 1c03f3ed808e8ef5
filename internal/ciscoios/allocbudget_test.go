package ciscoios

import (
	"fmt"
	"testing"

	"mpa/internal/confmodel"
	"mpa/internal/conftest"
	"mpa/internal/rng"
)

// TestAllocBudgetParseSnapshot pins the allocation cost of parsing one
// snapshot with a warm scratch (the inference engine's steady state:
// interner and sizing hints populated by earlier snapshots of the same
// devices). The budget is per stanza, so it tracks parser efficiency
// rather than fixture size. CI runs `go test -run AllocBudget ./...`;
// exceeding a checked-in budget fails the build.
func TestAllocBudgetParseSnapshot(t *testing.T) {
	var d Dialect
	r := rng.New(3)
	texts := make([]string, 8)
	stanzas := 0
	for i := range texts {
		cfg := conftest.RandomConfig(r, conftest.StyleCisco)
		stanzas += cfg.Len()
		texts[i] = d.Render(cfg)
	}
	sc := confmodel.NewScratch()
	for _, tx := range texts {
		if _, err := d.ParseScratch(tx, sc); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	avg := testing.AllocsPerRun(64, func() {
		if _, err := d.ParseScratch(texts[i%len(texts)], sc); err != nil {
			t.Fatal(err)
		}
		i++
	})
	perStanza := avg / (float64(stanzas) / float64(len(texts)))
	t.Logf("parse: %.1f allocs/snapshot, %.2f allocs/stanza", avg, perStanza)
	// Budget: ~1 stanza struct + ~2 map allocs per stanza, plus slack for
	// option values and config bookkeeping; this reads ~3.2. The
	// pre-zero-copy parser sat around 12 allocs/stanza.
	const budget = 4.8
	if perStanza > budget {
		t.Errorf("parse allocations %.2f/stanza exceed budget %.1f", perStanza, budget)
	}
}

// TestAllocBudgetParseNext pins the allocation cost of ParseNext on a
// successor that differs from its predecessor in one block: the window
// is parsed and everything else shared, so the cost is a small constant
// (the config, its stanza and block slices, the new stanza), the same
// for a 10-stanza config as for a 2,500-stanza one. CI runs it with the
// other AllocBudget tests.
func TestAllocBudgetParseNext(t *testing.T) {
	var d Dialect
	small, large := parseNextAllocs(t, d, 10), parseNextAllocs(t, d, 2500)
	t.Logf("ParseNext, one block changed: %.1f allocs at 10 stanzas, %.1f at 2500", small, large)
	// Budget: reads 7 at both sizes.
	const budget = 10
	if small > budget || large > budget {
		t.Errorf("ParseNext allocations %.1f (10 stanzas), %.1f (2500) exceed budget %d", small, large, budget)
	}
}

// parseNextAllocs returns the allocations of one ParseNext of a config
// of n VLANs after the same config with one VLAN's name changed.
func parseNextAllocs(t *testing.T, d confmodel.Dialect, n int) float64 {
	t.Helper()
	cfg := confmodel.NewConfig("many")
	for i := 0; i < n; i++ {
		cfg.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, fmt.Sprintf("v%04d", i)).
			Set("vlan-id", fmt.Sprint(i)).Set("description", "users"))
	}
	prevText := d.Render(cfg)
	cfg.Upsert(cfg.Get(confmodel.TypeVLAN, fmt.Sprintf("v%04d", n/2)).Clone().Set("description", "servers"))
	text := d.Render(cfg)
	p := d.(confmodel.ScratchParser)
	sc := confmodel.NewScratch()
	prev, err := p.ParseScratch(prevText, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ParseNext(prev, text, sc); err != nil { // warm the interner
		t.Fatal(err)
	}
	return testing.AllocsPerRun(50, func() {
		if _, err := p.ParseNext(prev, text, sc); err != nil {
			t.Fatal(err)
		}
	})
}
