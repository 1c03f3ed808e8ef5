package ciscoios

import (
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
