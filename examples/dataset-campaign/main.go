// Dataset campaign: the full lifecycle a simulation campaign goes through —
// dump several fields over many timesteps into a compressed dataset, then
// serve post-hoc analyses at whatever accuracy each one needs, each under
// the entry's exact per-level bound, with collection-wide I/O accounting.
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
	"pmgard/internal/grid"
	"pmgard/internal/sim/grayscott"
)

func main() {
	const steps = 10
	dir, err := os.MkdirTemp("", "pmgard-campaign")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Simulation side: dump both Gray-Scott fields every step, keeping
	// the originals so the analysis side can check what it got.
	fmt.Println("running simulation and writing compressed dataset ...")
	sim, err := grayscott.New(grayscott.DefaultConfig(17))
	if err != nil {
		log.Fatal(err)
	}
	w, err := dataset.Create(filepath.Join(dir, "run1"), "gray-scott-17", core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	originals := map[string]*grid.Tensor{}
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
			originals[fmt.Sprintf("%s@%d", name, t)] = field
		}
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// 2. Analysis side: open the dataset once, retrieve at mixed
	// accuracies. Every plan is the fewest bytes whose bound meets the
	// tolerance, so the achieved error never exceeds it.
	r, err := dataset.Open(filepath.Join(dir, "run1"))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	fmt.Printf("\ndataset %q: fields %v, %d timesteps, %d stored bytes\n",
		r.Name(), r.Fields(), len(r.Timesteps("Du")), r.StoredBytes())

	fmt.Println("\nfield@t   rel_bound   bytes   achieved/tol")
	var planned int64
	for _, q := range []struct {
		field string
		ts    int
		rel   float64
	}{
		{"Du", 7, 1e-2},
		{"Dv", 9, 1e-4},
		{"Du", 8, 1e-3},
		{"Dv", 2, 1e-6},
	} {
		rec, plan, err := r.Retrieve(q.field, q.ts, q.rel)
		if err != nil {
			log.Fatal(err)
		}
		orig := originals[fmt.Sprintf("%s@%d", q.field, q.ts)]
		tol := q.rel * orig.Range()
		ratio := grid.MaxAbsDiff(orig, rec) / tol
		if ratio > 1 {
			log.Fatalf("%s@%d: achieved error %.3g × the tolerance", q.field, q.ts, ratio)
		}
		planned += plan.Bytes
		fmt.Printf("%s@%-6d %9.0e %7d   %.3f\n", q.field, q.ts, q.rel, plan.Bytes, ratio)
	}

	// 3. A time-evolution query: one field over a timestep range.
	series, err := r.RetrieveSeries("Du", 3, 7, 1e-3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDu over t=3..6 at 1e-03:")
	for _, s := range series {
		planned += s.Bytes
		fmt.Printf(" %d", s.Bytes)
	}
	fmt.Println(" bytes")

	// The readers fetched exactly the planned bytes: nothing beyond the
	// plans is read anywhere in the collection.
	fmt.Printf("\ntotal payload read across the campaign: %d bytes (planned %d)\n", r.BytesRead(), planned)
	if r.BytesRead() != planned {
		log.Fatalf("read %d bytes, planned %d", r.BytesRead(), planned)
	}
}
