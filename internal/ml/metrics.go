package ml

// Evaluation holds classification quality measures (paper §6.1: accuracy,
// per-class precision and recall, via 5-fold cross-validation).
type Evaluation struct {
	Accuracy  float64
	Precision []float64 // per class
	Recall    []float64 // per class
	Confusion [][]int   // [actual][predicted]
	N         int
}

// Evaluate scores predictions against truth for the given class count.
func Evaluate(pred, truth []int, classes int) Evaluation {
	confusion := newConfusion(classes)
	for i := range truth {
		confusion[truth[i]][pred[i]]++
	}
	return fromConfusion(confusion)
}

// Merge combines fold evaluations by pooling their confusion matrices.
func Merge(evals []Evaluation, classes int) Evaluation {
	confusion := newConfusion(classes)
	for _, ev := range evals {
		for a, row := range ev.Confusion {
			for p, n := range row {
				confusion[a][p] += n
			}
		}
	}
	return fromConfusion(confusion)
}

func newConfusion(classes int) [][]int {
	confusion := make([][]int, classes)
	for c := range confusion {
		confusion[c] = make([]int, classes)
	}
	return confusion
}

// fromConfusion derives accuracy and per-class precision and recall from
// a [actual][predicted] confusion matrix, which it keeps.
func fromConfusion(confusion [][]int) Evaluation {
	classes := len(confusion)
	ev := Evaluation{
		Precision: make([]float64, classes),
		Recall:    make([]float64, classes),
		Confusion: confusion,
	}
	correct := 0
	for c, row := range confusion {
		correct += row[c]
		for _, n := range row {
			ev.N += n
		}
	}
	if ev.N > 0 {
		ev.Accuracy = float64(correct) / float64(ev.N)
	}
	for c := 0; c < classes; c++ {
		var predicted, actual int
		for o := 0; o < classes; o++ {
			predicted += confusion[o][c]
			actual += confusion[c][o]
		}
		tp := confusion[c][c]
		if predicted > 0 {
			ev.Precision[c] = float64(tp) / float64(predicted)
		}
		if actual > 0 {
			ev.Recall[c] = float64(tp) / float64(actual)
		}
	}
	return ev
}
