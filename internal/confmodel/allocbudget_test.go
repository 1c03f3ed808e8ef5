package confmodel

import "testing"

// TestAllocBudgetConfigGet pins Config.Get at zero allocations, hit or
// miss: it compares the type identifier and name against each probed
// stanza instead of building the lookup key, so a long name costs no
// more than a short one (a concatenated key longer than 32 bytes is
// heap-allocated). IntraDeviceRefs calls it once per reference of every
// month-end config. CI runs `go test -run AllocBudget ./...`.
func TestAllocBudgetConfigGet(t *testing.T) {
	const long = "Port-channel-to-core-distribution-01"
	sc := NewScratch()
	c := NewConfig("dev")
	for _, name := range []string{"Gi0/1", "Gi0/2", "Gi0/3", "Gi0/10", long} {
		c.Upsert(sc.NewStanza(TypeInterface, name))
	}
	c.Upsert(sc.NewStanza(TypeACL, "ACL-WEB"))
	c.Upsert(sc.NewStanza(TypeVLAN, "100"))
	allocs := testing.AllocsPerRun(100, func() {
		if c.Get(TypeACL, "ACL-WEB") == nil || c.Get(TypeInterface, "Gi0/10") == nil ||
			c.Get(TypeInterface, long) == nil {
			t.Fatal("Get missed a stanza")
		}
		if c.Get(TypeVLAN, "999") != nil || c.Get(TypeBGP, "65000") != nil {
			t.Fatal("Get found a missing stanza")
		}
	})
	if allocs != 0 {
		t.Errorf("Config.Get allocates %.1f times per run, want 0", allocs)
	}
}
