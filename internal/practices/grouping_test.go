package practices

import (
	"testing"
	"time"

	"mpa/internal/confmodel"
)

func cd(dev string, minuteOffset int, types ...confmodel.Type) ChangeDetail {
	base := time.Date(2014, 3, 1, 10, 0, 0, 0, time.UTC)
	return ChangeDetail{
		Device: dev,
		Time:   base.Add(time.Duration(minuteOffset) * time.Minute),
		Types:  types,
	}
}

func TestTypedGroupingSplitsUnrelatedWork(t *testing.T) {
	// An ACL rollout on two firewalls interleaved with an unrelated NTP
	// tweak on a switch: plain grouping fuses all three, typed grouping
	// separates the NTP change.
	changes := []ChangeDetail{
		cd("fw1", 0, confmodel.TypeACL),
		cd("sw9", 1, confmodel.TypeNTP),
		cd("fw2", 2, confmodel.TypeACL),
	}
	plain := GroupChanges(changes, 5*time.Minute)
	if len(plain) != 1 {
		t.Fatalf("plain groups = %d, want 1", len(plain))
	}
	typed := GroupChangesTyped(changes, 5*time.Minute)
	if len(typed) != 2 {
		t.Fatalf("typed groups = %d, want 2", len(typed))
	}
	sizes := map[int]int{}
	for _, g := range typed {
		sizes[len(g)]++
	}
	if sizes[2] != 1 || sizes[1] != 1 {
		t.Errorf("typed group sizes = %v", sizes)
	}
}

func TestTypedGroupingKeepsSameDeviceSession(t *testing.T) {
	// Mixed-type edits on one device stay one event (a session).
	changes := []ChangeDetail{
		cd("sw1", 0, confmodel.TypeACL),
		cd("sw1", 1, confmodel.TypeNTP),
		cd("sw1", 2, confmodel.TypeQoS),
	}
	typed := GroupChangesTyped(changes, 5*time.Minute)
	if len(typed) != 1 {
		t.Fatalf("typed groups = %d, want 1 (same-device session)", len(typed))
	}
}

func TestTypedGroupingBridgesVendorQuirk(t *testing.T) {
	// A VLAN rollout typed as interface on the Cisco device and vlan on
	// the Juniper device must remain one event.
	changes := []ChangeDetail{
		cd("cisco-sw", 0, confmodel.TypeInterface, confmodel.TypeVLAN),
		cd("junos-sw", 1, confmodel.TypeVLAN),
		cd("cisco-sw2", 2, confmodel.TypeInterface),
	}
	typed := GroupChangesTyped(changes, 5*time.Minute)
	if len(typed) != 1 {
		t.Fatalf("typed groups = %d, want 1 (vendor quirk bridged)", len(typed))
	}
}

func TestTypedGroupingRespectsTimeChains(t *testing.T) {
	// Same type but far apart in time: still separate events.
	changes := []ChangeDetail{
		cd("fw1", 0, confmodel.TypeACL),
		cd("fw2", 60, confmodel.TypeACL),
	}
	typed := GroupChangesTyped(changes, 5*time.Minute)
	if len(typed) != 2 {
		t.Fatalf("typed groups = %d, want 2", len(typed))
	}
}

func TestTypedGroupingNeverFewerThanPlain(t *testing.T) {
	// Typed grouping refines plain grouping: it can only split.
	name := testOSP.Inventory.Networks[0].Name
	var changes []ChangeDetail
	for _, ma := range testAnalysis[name] {
		changes = append(changes, ma.Changes...)
	}
	if len(changes) == 0 {
		t.Skip("no changes in first network")
	}
	plain := GroupChanges(changes, 5*time.Minute)
	typed := GroupChangesTyped(changes, 5*time.Minute)
	if len(typed) < len(plain) {
		t.Errorf("typed %d < plain %d", len(typed), len(plain))
	}
	// Total change count preserved.
	count := func(groups [][]ChangeDetail) int {
		total := 0
		for _, g := range groups {
			total += len(g)
		}
		return total
	}
	if count(typed) != len(changes) || count(plain) != len(changes) {
		t.Error("grouping lost or duplicated changes")
	}
}

func TestTypedGroupingEmpty(t *testing.T) {
	if got := GroupChangesTyped(nil, time.Minute); got != nil {
		t.Errorf("empty input produced %v", got)
	}
}

func TestGroupChangesEmpty(t *testing.T) {
	if got := GroupChanges(nil, DefaultDelta); got != nil {
		t.Errorf("GroupChanges(nil) = %v", got)
	}
}

func TestGroupChangesChaining(t *testing.T) {
	// Gaps: 3, 4, 30 minutes. With delta=5 the first three chain together.
	changes := []ChangeDetail{cd("a", 0), cd("b", 3), cd("c", 7), cd("d", 37)}
	evts := GroupChanges(changes, 5*time.Minute)
	if len(evts) != 2 {
		t.Fatalf("events = %d, want 2", len(evts))
	}
	if len(evts[0]) != 3 || len(evts[1]) != 1 {
		t.Errorf("event sizes = %d, %d", len(evts[0]), len(evts[1]))
	}
	// A gap of exactly delta still chains.
	if got := GroupChanges([]ChangeDetail{cd("a", 0), cd("b", 5)}, 5*time.Minute); len(got) != 1 {
		t.Errorf("gap == delta: events = %d, want 1", len(got))
	}
}

func TestGroupChangesTransitivity(t *testing.T) {
	// Consecutive 4-minute gaps spanning 20 minutes total still form one
	// event: the heuristic is transitive.
	var changes []ChangeDetail
	for i := 0; i < 6; i++ {
		changes = append(changes, cd("d", i*4))
	}
	if evts := GroupChanges(changes, 5*time.Minute); len(evts) != 1 {
		t.Errorf("events = %d, want 1 (transitive chaining)", len(evts))
	}
}

func TestGroupChangesNADisablesGrouping(t *testing.T) {
	changes := []ChangeDetail{cd("a", 0), cd("b", 1), cd("c", 2)}
	for _, delta := range []time.Duration{0, -time.Minute} {
		if evts := GroupChanges(changes, delta); len(evts) != 3 {
			t.Errorf("delta %v: events = %d, want 3", delta, len(evts))
		}
	}
}

func TestGroupChangesUnsortedInput(t *testing.T) {
	changes := []ChangeDetail{cd("c", 40), cd("a", 0), cd("b", 2)}
	evts := GroupChanges(changes, 5*time.Minute)
	if len(evts) != 2 {
		t.Fatalf("events = %d, want 2", len(evts))
	}
	if evts[0][0].Device != "a" || evts[0][1].Device != "b" || evts[1][0].Device != "c" {
		t.Errorf("events not in time order: %v", evts)
	}
}

func TestGroupChangesDoesNotMutateInput(t *testing.T) {
	changes := []ChangeDetail{cd("b", 10), cd("a", 0)}
	for _, delta := range []time.Duration{0, time.Minute} {
		GroupChanges(changes, delta)
		if changes[0].Device != "b" || changes[1].Device != "a" {
			t.Fatalf("delta %v: GroupChanges modified the caller's slice: %v", delta, changes)
		}
	}
}

func TestGroupChangesLargerDeltaNeverMoreEvents(t *testing.T) {
	// Figure 3's monotone behaviour: growing delta can only merge events.
	changes := []ChangeDetail{cd("a", 0), cd("b", 2), cd("c", 9), cd("d", 11), cd("e", 30), cd("f", 55)}
	prev := len(changes) + 1
	for _, mins := range []int{0, 1, 2, 5, 10, 15, 30} {
		n := len(GroupChanges(changes, time.Duration(mins)*time.Minute))
		if n > prev {
			t.Errorf("delta %d min produced more events (%d) than smaller delta (%d)", mins, n, prev)
		}
		prev = n
	}
}

func TestGroupChangesSameTimestampOneEvent(t *testing.T) {
	// Simultaneous changes on different devices are one event, ordered
	// by device.
	evts := GroupChanges([]ChangeDetail{cd("b", 0), cd("a", 0)}, time.Minute)
	if len(evts) != 1 || len(evts[0]) != 2 || evts[0][0].Device != "a" {
		t.Errorf("simultaneous changes: %v", evts)
	}
}
