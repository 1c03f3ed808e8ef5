package junos

import (
	"testing"

	"mpa/internal/confmodel"
	"mpa/internal/conftest"
	"mpa/internal/rng"
)

// TestAllocBudgetParseSnapshot pins the allocation cost of parsing one
// snapshot with a warm scratch, per stanza (see the ciscoios counterpart
// for the budget rationale). CI fails the build when exceeded.
func TestAllocBudgetParseSnapshot(t *testing.T) {
	var d Dialect
	r := rng.New(3)
	texts := make([]string, 8)
	stanzas := 0
	for i := range texts {
		cfg := conftest.RandomConfig(r, conftest.StyleJuniper)
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
	// Budget: reads ~3.1; see the ciscoios budget.
	const budget = 4.7
	if perStanza > budget {
		t.Errorf("parse allocations %.2f/stanza exceed budget %.1f", perStanza, budget)
	}
}
