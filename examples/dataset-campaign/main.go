// Dataset campaign: the full lifecycle a simulation campaign goes through —
// dump several fields over many timesteps into a compressed dataset, train
// the retrieval models once, attach them, and serve post-hoc analyses at
// whatever accuracy each one needs, with collection-wide I/O accounting.
//
// Run with: go run ./examples/dataset-campaign
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pmgard/internal/core"
	"pmgard/internal/dataset"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/sim/grayscott"
)

func main() {
	const steps = 10
	dir, err := os.MkdirTemp("", "pmgard-campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Simulation side: dump both Gray-Scott fields every step.
	fmt.Println("running simulation and writing compressed dataset ...")
	sim, err := grayscott.New(grayscott.DefaultConfig(17))
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.DefaultConfig()
	w, err := dataset.Create(filepath.Join(dir, "run1"), "gray-scott-17", cfg)
	if err != nil {
		log.Fatal(err)
	}
	bounds := []float64{1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 5e-7, 5e-5, 5e-3}
	var drecs []dmgard.Record
	var esamps []emgard.Sample
	for t := 0; t < steps; t++ {
		sim.Step()
		for _, name := range grayscott.FieldNames() {
			field, err := sim.Field(name)
			if err != nil {
				log.Fatal(err)
			}
			if err := w.Add(field, name, t); err != nil {
				log.Fatal(err)
			}
			// Harvest model training data alongside the dump (offline
			// stage of Fig. 4), first half of the run only: one sweep
			// per field, both models' training sets read off it.
			if name == "Du" && t < steps/2 {
				c, sweep, err := core.TheorySweep(field, cfg, name, t, bounds)
				if err != nil {
					log.Fatal(err)
				}
				drecs = append(drecs, dmgard.Records(field, &c.Header, sweep)...)
				esamps = append(esamps, emgard.Samples(&c.Header, sweep)...)
			}
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// 2. Train both models once ("train once, infer many times", §IV-A4).
	fmt.Printf("training D-MGARD (%d records) and E-MGARD (%d samples) ...\n", len(drecs), len(esamps))
	dcfg := dmgard.DefaultConfig()
	dcfg.Epochs = 60
	dm, err := dmgard.Train(drecs, cfg.Planes, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	ecfg := emgard.DefaultConfig()
	ecfg.Epochs = 80
	em, err := emgard.Train(esamps, ecfg)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Analysis side: open the dataset, attach the models, retrieve.
	r, err := dataset.Open(filepath.Join(dir, "run1"))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	fmt.Printf("\ndataset %q: fields %v, %d timesteps, %d stored bytes\n",
		r.Name(), r.Fields(), len(r.Timesteps("Du")), r.StoredBytes())
	r.AttachDMGARD(dm)
	r.AttachEMGARD(em)

	fmt.Println("\ncontrol    field@t   rel_bound   bytes")
	for _, q := range []struct {
		control string
		field   string
		ts      int
		rel     float64
	}{
		{"theory", "Du", 7, 1e-2},
		{"emgard", "Du", 7, 1e-2},
		{"theory", "Dv", 9, 1e-4},
		{"emgard", "Dv", 9, 1e-4},
		{"dmgard", "Du", 8, 1e-3},
	} {
		var bytes int64
		var err error
		switch q.control {
		case "theory":
			_, plan, e := r.Retrieve(q.field, q.ts, q.rel)
			bytes, err = plan.Bytes, e
		case "emgard":
			_, plan, e := r.RetrieveEMGARD(q.field, q.ts, q.rel)
			bytes, err = plan.Bytes, e
		case "dmgard":
			_, plan, e := r.RetrieveDMGARD(q.field, q.ts, q.rel)
			bytes, err = plan.Bytes, e
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s %s@%-6d %9.0e %8d\n", q.control, q.field, q.ts, q.rel, bytes)
	}
	fmt.Printf("\ntotal payload read across the campaign: %d bytes\n", r.BytesRead())
}
