package ml

import "mpa/internal/rng"

// Pegasos hyperparameters.
const (
	svmLambda = 1e-4 // L2 regularization strength
	svmEpochs = 20   // passes over the data
)

// SVM is a linear multiclass (one-vs-rest) support vector machine trained
// with Pegasos-style stochastic subgradient descent on hinge loss. The
// paper found SVMs perform worse than a majority classifier on this task
// because unhealthy cases concentrate in a small region of practice space
// (§6.1) — the baseline exists to reproduce that comparison.
type SVM struct {
	weights [][]float64 // per class: weight vector + bias at end
	classes int
}

// TrainSVM fits one linear separator per class (one-vs-rest) over the
// binned features (treated as numeric values).
func TrainSVM(X [][]int, y []int, classes int, r *rng.RNG) *SVM {
	if len(X) == 0 {
		panic("ml: TrainSVM with no data")
	}
	d := len(X[0])
	s := &SVM{classes: classes}
	for c := 0; c < classes; c++ {
		w := make([]float64, d+1)
		t := 0
		for epoch := 0; epoch < svmEpochs; epoch++ {
			order := r.Perm(len(X))
			for _, i := range order {
				t++
				eta := 1 / (svmLambda * float64(t))
				label := -1.0
				if y[i] == c {
					label = 1
				}
				margin := dotBias(w, X[i]) * label
				for j := 0; j < d; j++ {
					w[j] *= 1 - eta*svmLambda
				}
				if margin < 1 {
					for j := 0; j < d; j++ {
						w[j] += eta * label * float64(X[i][j])
					}
					w[d] += eta * label
				}
			}
		}
		s.weights = append(s.weights, w)
	}
	return s
}

func dotBias(w []float64, x []int) float64 {
	total := w[len(w)-1]
	for j, v := range x {
		total += w[j] * float64(v)
	}
	return total
}

// Predict returns the class whose separator scores highest.
func (s *SVM) Predict(x []int) int {
	best, bestScore := 0, dotBias(s.weights[0], x)
	for c := 1; c < s.classes; c++ {
		if score := dotBias(s.weights[c], x); score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}
