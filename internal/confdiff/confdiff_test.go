package confdiff

import (
	"testing"

	"mpa/internal/confmodel"
)

func base() *confmodel.Config {
	c := confmodel.NewConfig("d1")
	c.Upsert(confmodel.NewStanza(confmodel.TypeInterface, "eth0").Set("mtu", "1500"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeVLAN, "100").Set("vlan-id", "100"))
	c.Upsert(confmodel.NewStanza(confmodel.TypeACL, "A").Set("rule:10", "permit ip any any"))
	return c
}

func TestDiffIdentical(t *testing.T) {
	if got := Diff(base(), base()); got != nil {
		t.Errorf("identical diff = %v", got)
	}
}

func TestDiffAdd(t *testing.T) {
	n := base()
	n.Upsert(confmodel.NewStanza(confmodel.TypeBGP, "65001"))
	changes := Diff(base(), n)
	if len(changes) != 1 {
		t.Fatalf("changes = %v", changes)
	}
	c := changes[0]
	if c.Type != confmodel.TypeBGP || c.Name != "65001" || c.Kind != KindAdd {
		t.Errorf("change = %+v", c)
	}
}

func TestDiffRemove(t *testing.T) {
	n := base()
	n.Remove(confmodel.TypeACL, "A")
	changes := Diff(base(), n)
	if len(changes) != 1 || changes[0].Kind != KindRemove || changes[0].Type != confmodel.TypeACL {
		t.Errorf("changes = %v", changes)
	}
}

func TestDiffUpdate(t *testing.T) {
	n := base()
	n.Get(confmodel.TypeInterface, "eth0").Set("mtu", "9000")
	changes := Diff(base(), n)
	if len(changes) != 1 || changes[0].Kind != KindUpdate || changes[0].Type != confmodel.TypeInterface {
		t.Errorf("changes = %v", changes)
	}
}

func TestDiffMixed(t *testing.T) {
	o := base()
	n := base()
	n.Get(confmodel.TypeVLAN, "100").Set("description", "web")                // update
	n.Remove(confmodel.TypeACL, "A")                                          // remove
	n.Upsert(confmodel.NewStanza(confmodel.TypeUser, "ops").Set("role", "1")) // add
	changes := Diff(o, n)
	if len(changes) != 3 {
		t.Fatalf("changes = %v", changes)
	}
	kinds := map[Kind]int{}
	for _, c := range changes {
		kinds[c.Kind]++
	}
	if kinds[KindAdd] != 1 || kinds[KindRemove] != 1 || kinds[KindUpdate] != 1 {
		t.Errorf("kind counts = %v", kinds)
	}
}

func TestDiffDeterministicOrder(t *testing.T) {
	o := confmodel.NewConfig("d")
	n := confmodel.NewConfig("d")
	for _, name := range []string{"c", "a", "b"} {
		n.Upsert(confmodel.NewStanza(confmodel.TypeInterface, name))
	}
	first := Diff(o, n)
	second := Diff(o, n)
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("diff order not deterministic")
		}
	}
	if first[0].Name != "a" || first[1].Name != "b" || first[2].Name != "c" {
		t.Errorf("diff not sorted by name: %v", first)
	}
}

func TestKindString(t *testing.T) {
	if KindAdd.String() != "add" || KindRemove.String() != "remove" || KindUpdate.String() != "update" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind name wrong")
	}
}
