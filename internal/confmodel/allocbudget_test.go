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
	c := sc.NewConfig("dev")
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

// TestAllocBudgetScratchReusable pins Scratch.Reusable at zero
// allocations, for headers in key order (the cursor path), a header that
// goes backwards (the binary-search fallback) and a header prev lacks.
func TestAllocBudgetScratchReusable(t *testing.T) {
	blocks := []struct {
		t          Type
		name, text string
	}{
		{TypeACL, "A", "ip access-list extended A\n permit ip any any\n!\n"},
		{TypeInterface, "Gi0/1", "interface Gi0/1\n mtu 9000\n!\n"},
		{TypeInterface, "Gi0/2", "interface Gi0/2\n shutdown\n!\n"},
		{TypeVLAN, "10", "vlan 10\n!\n"},
	}
	sc := NewScratch()
	prev := sc.NewConfig("dev")
	text := ""
	for _, b := range blocks {
		s := sc.NewStanza(b.t, b.name)
		s.SetSource(b.text)
		prev.Upsert(s)
		text += b.text
	}
	allocs := testing.AllocsPerRun(100, func() {
		off := 0
		for _, b := range blocks {
			if sc.Reusable(prev, b.t, b.name, text[off:]) == nil {
				t.Fatalf("block %s %s not reusable", b.t, b.name)
			}
			off += len(b.text)
		}
		if sc.Reusable(prev, TypeACL, "A", text) == nil {
			t.Fatal("a header that goes backwards is not reusable")
		}
		if sc.Reusable(prev, TypeInterface, "Gi0/9", text) != nil {
			t.Fatal("a header prev lacks is reusable")
		}
	})
	if allocs != 0 {
		t.Errorf("Scratch.Reusable allocates %.1f times per run, want 0", allocs)
	}
}
