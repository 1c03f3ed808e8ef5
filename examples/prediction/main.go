// Health prediction walkthrough: the paper's §6 pipeline — train 2-class
// and 5-class health models, compare the skew remedies (boosting and
// oversampling), and run online month-ahead prediction (Table 9).
package main

import (
	"fmt"
	"log"

	"mpa"
)

func main() {
	cfg := mpa.SmallConfig(99)
	cfg.Networks = 150
	start, _ := mpa.StudyWindow()
	cfg.Start = start
	cfg.End = start.Add(11)
	f, err := mpa.NewSynthetic(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("dataset:", f.Dataset())

	// Coarse model: healthy (<=1 ticket/month) vs unhealthy.
	two, err := f.TrainHealthModel(mpa.TwoClass)
	if err != nil {
		log.Fatal(err)
	}
	q := two.Quality()
	fmt.Printf("\n2-class model (pruned decision tree, 5-fold CV):\n")
	fmt.Printf("  accuracy %.1f%%  — majority baseline %.1f%%\n", 100*q.Accuracy, 100*q.MajorityAccuracy)
	for c, name := range mpa.TwoClass.ClassNames() {
		fmt.Printf("  %-10s precision %.2f, recall %.2f\n", name, q.Precision[c], q.Recall[c])
	}

	// Fine-grained model: skew makes plain trees overfit the majority
	// class; compare plain vs the paper's oversampling+boosting remedy.
	plain, err := f.TrainHealthModelOn(f.Dataset(), mpa.FiveClass, mpa.ModelOptions{})
	if err != nil {
		log.Fatal(err)
	}
	best, err := f.TrainHealthModel(mpa.FiveClass)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n5-class recall by class (plain tree vs oversampled+boosted):\n")
	for c, name := range mpa.FiveClass.ClassNames() {
		fmt.Printf("  %-10s %.2f -> %.2f\n", name,
			plain.Quality().Recall[c], best.Quality().Recall[c])
	}

	// Online prediction: each month, train on the prior M months and
	// predict the coming month's health per network (paper Table 9).
	fmt.Printf("\nOnline month-ahead accuracy:\n")
	for _, m := range []int{1, 3, 6} {
		preds, err := f.PredictOnline(mpa.TwoClass, m)
		if err != nil {
			log.Fatal(err)
		}
		var sum float64
		for _, p := range preds {
			sum += p.Accuracy
		}
		fmt.Printf("  M=%d months of history: %.1f%% over %d test months\n",
			m, 100*sum/float64(len(preds)), len(preds))
	}

	// What-if analysis: take a real unhealthy case and ask what the
	// model predicts if the network halved its change events.
	var sample *mpa.Case
	for i := range f.Dataset().Cases {
		c := &f.Dataset().Cases[i]
		if c.Tickets >= 6 {
			sample = c
			break
		}
	}
	if sample != nil {
		fmt.Printf("\nWhat-if for %s (%s, %d tickets): predicted %q\n",
			sample.Network, sample.Month, sample.Tickets, two.PredictClassName(sample.Metrics))
		adjusted := mpa.Metrics{}
		for k, v := range sample.Metrics {
			adjusted[k] = v
		}
		adjusted["no_change_events"] /= 2
		adjusted["no_config_changes"] /= 2
		fmt.Printf("  with half the change events: predicted %q\n",
			two.PredictClassName(adjusted))
	}
}
