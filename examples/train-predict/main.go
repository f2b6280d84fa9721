// Train-predict: the "train once, infer many times" workflow of §IV-A4.
// A D-MGARD model is trained on the first half of a Gray-Scott run and
// predicts the per-level bit-plane counts on the second half; the program
// prints the prediction-error histogram the paper reports in Fig. 10.
//
// Run with: go run ./examples/train-predict
package main

import (
	"fmt"
	"log"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/sim/grayscott"
)

func main() {
	const steps = 12
	sim, err := grayscott.New(grayscott.DefaultConfig(17))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	bounds := []float64{1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1,
		5e-8, 5e-6, 5e-4, 5e-2}

	var train, test []dmgard.Record
	for t := 0; t < steps; t++ {
		sim.Step()
		field := sim.FieldU()
		c, sweep, err := core.TheorySweep(field, cfg, "Du", t, bounds)
		if err != nil {
			log.Fatal(err)
		}
		recs := dmgard.Records(field, &c.Header, sweep)
		if t < steps/2 {
			train = append(train, recs...)
		} else {
			test = append(test, recs...)
		}
	}
	fmt.Printf("harvested %d training and %d test records\n", len(train), len(test))

	tc := dmgard.DefaultConfig()
	tc.Epochs = 100
	model, err := dmgard.Train(train, cfg.Planes, tc)
	if err != nil {
		log.Fatal(err)
	}

	// Histogram of (predicted − actual) plane counts per level.
	const span = 3 // buckets -3..+3
	hist := make([][2*span + 1]int, model.Levels())
	beyond := make([]int, model.Levels())
	for _, r := range test {
		pred, err := model.Predict(r.Features, r.AchievedErr)
		if err != nil {
			log.Fatal(err)
		}
		for l := range pred {
			d := pred[l] - r.Planes[l]
			if d < -span || d > span {
				beyond[l]++
				continue
			}
			hist[l][d+span]++
		}
	}

	fmt.Println("\nprediction error (predicted − actual planes), % of test records:")
	fmt.Print("level ")
	for d := -span; d <= span; d++ {
		fmt.Printf("%7d", d)
	}
	fmt.Println("  |>3|")
	n := float64(len(test))
	for l := range hist {
		fmt.Printf("%5d ", l)
		for _, c := range hist[l] {
			fmt.Printf("%6.1f%%", 100*float64(c)/n)
		}
		fmt.Printf(" %5.1f%%\n", 100*float64(beyond[l])/n)
	}
	fmt.Println("\n(the paper finds >60% of predictions exact on lower levels, ±1 for most of the rest)")
}
