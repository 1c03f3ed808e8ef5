package confdiff

import (
	"fmt"
	"testing"

	"mpa/internal/confmodel"
)

// TestAllocBudgetDiffPair pins the hot-path diff at zero allocations:
// AppendDiff into a pre-grown buffer over two configs must not allocate at all — the merge walk has no maps and the caller
// owns the output memory. CI fails the build when exceeded.
func TestAllocBudgetDiffPair(t *testing.T) {
	mk := func(n int, drift bool) *confmodel.Config {
		c := confmodel.NewConfig("dev")
		for i := 0; i < n; i++ {
			s := confmodel.NewStanza(confmodel.TypeInterface, fmt.Sprintf("Gi0/%d", i))
			s.Set("mtu", "1500")
			if drift && i%7 == 0 {
				s.Set("description", "drifted")
			}
			c.Upsert(s)
		}
		if drift {
			c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "v9").Set("vlan-id", "9"))
		}
		return c
	}
	oldCfg, newCfg := mk(120, false), mk(120, true)
	var buf []StanzaChange
	buf = AppendDiff(buf[:0], oldCfg, newCfg) // grow buffer
	if len(buf) == 0 {
		t.Fatal("fixture produced an empty diff")
	}
	avg := testing.AllocsPerRun(64, func() {
		buf = AppendDiff(buf[:0], oldCfg, newCfg)
	})
	t.Logf("diff: %.2f allocs/pair", avg)
	if avg > 0 {
		t.Errorf("diff allocations %.2f/pair exceed budget 0", avg)
	}
}
