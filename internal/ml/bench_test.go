package ml

import (
	"testing"

	"mpa/internal/rng"
)

// treeFixture is a fixed training set shaped like the paper's 5-class
// health data: 480 cases of 28 practice metrics, each binned into 5 bins,
// with a skewed label driven by a few metrics plus noise.
func treeFixture() ([][]int, []int) {
	r := rng.New(11)
	X := make([][]int, 480)
	y := make([]int, len(X))
	for i := range X {
		row := make([]int, 28)
		for f := range row {
			row[f] = r.Intn(5)
		}
		X[i] = row
		score := row[0] + row[3] + row[7] + r.Intn(4)
		switch {
		case score < 7:
			y[i] = 0
		case score < 9:
			y[i] = 1
		case score < 11:
			y[i] = 2
		case score < 13:
			y[i] = 3
		default:
			y[i] = 4
		}
	}
	return X, y
}

// benchSink keeps the benchmarked models live so the compiler cannot
// drop the training calls.
var benchSink Classifier

func BenchmarkTrainTree(b *testing.B) {
	X, y := treeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = TrainTree(X, y, nil, 5, DefaultTreeConfig())
	}
}

func BenchmarkAdaBoost(b *testing.B) {
	X, y := treeFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = TrainAdaBoost(X, y, 5, DefaultBoostConfig())
	}
}
