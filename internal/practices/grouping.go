package practices

import (
	"sort"
	"time"

	"mpa/internal/confmodel"
)

// DefaultDelta is the paper's change-event grouping threshold: operators
// indicated they complete most related changes within 5 minutes.
const DefaultDelta = 5 * time.Minute

// GroupChanges partitions a network's inferred changes into change events
// (paper §2.2, O4). Realizing one outcome — e.g. establishing a new VLAN
// segment — often takes changes on several devices, so the heuristic
// chains them: changes sorted by time (then device, for a deterministic
// order) belong to one event while each gap to the previous change is at
// most delta. A non-positive delta disables grouping and every change
// becomes its own event (the "NA" configuration of Figure 3's sweep). The
// input slice is left unmodified.
func GroupChanges(changes []ChangeDetail, delta time.Duration) [][]ChangeDetail {
	if len(changes) == 0 {
		return nil
	}
	sorted := append([]ChangeDetail(nil), changes...)
	sort.Slice(sorted, func(i, j int) bool {
		if !sorted[i].Time.Equal(sorted[j].Time) {
			return sorted[i].Time.Before(sorted[j].Time)
		}
		return sorted[i].Device < sorted[j].Device
	})
	if delta <= 0 {
		out := make([][]ChangeDetail, len(sorted))
		for i := range sorted {
			out[i] = sorted[i : i+1 : i+1]
		}
		return out
	}
	var out [][]ChangeDetail
	start := 0
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Time.Sub(sorted[i-1].Time) > delta {
			out = append(out, sorted[start:i:i])
			start = i
		}
	}
	return append(out, sorted[start:])
}

// GroupChangesTyped implements the refinement the paper leaves as future
// work (§2.2: "we plan to also consider the change type and affected
// entities to more finely group related changes"): changes are first
// chained by time as usual, then each time-chain is split into connected
// components under the relation "shares at least one vendor-agnostic
// stanza type or is on the same device". Two unrelated operations that
// happen to interleave in time (e.g. an ACL rollout and an unrelated NTP
// tweak) therefore become separate events, while a multi-device VLAN
// rollout stays one event even on vendors that type the change
// differently (interface on Cisco, vlan on Juniper) because the device
// link keeps per-device sessions attached.
func GroupChangesTyped(changes []ChangeDetail, delta time.Duration) [][]ChangeDetail {
	var out [][]ChangeDetail
	for _, g := range GroupChanges(changes, delta) {
		out = append(out, splitByAffinity(g)...)
	}
	return out
}

// splitByAffinity partitions one time-chained group into connected
// components under type/device affinity.
func splitByAffinity(group []ChangeDetail) [][]ChangeDetail {
	n := len(group)
	if n <= 1 {
		return [][]ChangeDetail{group}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	// Link changes sharing a type or a device. Index by type and device
	// to stay linear.
	byType := map[confmodel.Type]int{}
	byDevice := map[string]int{}
	for i, c := range group {
		for _, ty := range c.Types {
			if j, ok := byType[ty]; ok {
				union(i, j)
			} else {
				byType[ty] = i
			}
		}
		if j, ok := byDevice[c.Device]; ok {
			union(i, j)
		} else {
			byDevice[c.Device] = i
		}
	}
	// VLAN-related types are linked to interface changes: the same logical
	// membership edit is typed differently across vendors (paper §2.2).
	if vi, ok := byType[confmodel.TypeVLAN]; ok {
		if ii, ok2 := byType[confmodel.TypeInterface]; ok2 {
			union(vi, ii)
		}
	}

	byRoot := map[int][]ChangeDetail{}
	var roots []int
	for i, c := range group {
		r := find(i)
		if _, ok := byRoot[r]; !ok {
			roots = append(roots, r)
		}
		byRoot[r] = append(byRoot[r], c)
	}
	out := make([][]ChangeDetail, 0, len(roots))
	for _, r := range roots {
		out = append(out, byRoot[r])
	}
	return out
}
