package ml

import "testing"

// TestAllocBudgetTrainTree pins the allocation cost of training one
// decision tree on the 480×28, 5-bin, 5-class fixture. The split search
// scores features from one scratch histogram per TrainTree call, so what
// remains is the per-call setup plus the tree's own nodes and child
// maps. The map-based split search it replaced allocated about 30,500
// times on this fixture. CI runs `go test -run AllocBudget ./...`;
// exceeding the budget fails.
func TestAllocBudgetTrainTree(t *testing.T) {
	X, y := treeFixture()
	tree := TrainTree(X, y, nil, 5, DefaultTreeConfig())
	avg := testing.AllocsPerRun(8, func() {
		TrainTree(X, y, nil, 5, DefaultTreeConfig())
	})
	t.Logf("TrainTree: %.0f allocs (%d nodes, depth %d)", avg, tree.NodeCount(), tree.Depth())
	// Budget: ~470 today — one treeNode per node, a child map and branch
	// list per split, and ~40 setup allocations.
	const budget = 1000.0
	if avg > budget {
		t.Errorf("TrainTree allocations %.0f exceed budget %.0f", avg, budget)
	}
}

// TestAllocBudgetAdaBoost pins the allocation cost of the paper's 15
// boosting rounds on the same fixture: one binning for every round, then
// per round a tree (its nodes, child maps and trainer scratch) and the
// round's miss vector.
func TestAllocBudgetAdaBoost(t *testing.T) {
	X, y := treeFixture()
	avg := testing.AllocsPerRun(4, func() {
		TrainAdaBoost(X, y, 5, DefaultBoostConfig())
	})
	t.Logf("TrainAdaBoost: %.0f allocs", avg)
	const budget = 10000.0
	if avg > budget {
		t.Errorf("TrainAdaBoost allocations %.0f exceed budget %.0f", avg, budget)
	}
}
