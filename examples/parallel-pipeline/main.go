// Parallel pipeline: compress and retrieve the same field at several
// worker counts, timing each and verifying the determinism invariant —
// every stored segment and every reconstructed sample is bit-identical no
// matter how many workers ran the pipeline.
//
// Run with: go run ./examples/parallel-pipeline
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math"
	"runtime"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/grayscott"
)

func main() {
	sim, err := grayscott.New(grayscott.DefaultConfig(33))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sim.Step()
	}
	field := sim.FieldV()
	fmt.Printf("field Dv: dims %v, GOMAXPROCS %d\n\n", field.Dims(), runtime.GOMAXPROCS(0))

	// Compress at each worker count; keep the workers=1 artifact as the
	// reference and compare every segment byte-for-byte.
	var ref *core.Compressed
	fmt.Println("workers   compress   retrieve   identical")
	for _, workers := range []int{1, 2, 4, 8} {
		cfg := core.DefaultConfig()
		cfg.Parallelism = workers
		t0 := time.Now()
		c, err := core.Compress(field, cfg, "Dv", 20)
		if err != nil {
			log.Fatal(err)
		}
		compressTime := time.Since(t0)
		h := &c.Header

		plan, err := retrieval.GreedyPlan(h.LevelInfos(), h.TheoryEstimator(), h.AbsTolerance(1e-5))
		if err != nil {
			log.Fatal(err)
		}
		t0 = time.Now()
		rec, err := core.Retrieve(context.Background(), h, c, plan, core.RetrieveOptions{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		retrieveTime := time.Since(t0)

		identical := true
		if ref == nil {
			ref = c
		} else {
			for l := range h.Levels {
				for k := 0; k < h.Planes; k++ {
					seg, _ := c.Segment(context.Background(), l, k)
					want, _ := ref.Segment(context.Background(), l, k)
					if !bytes.Equal(seg, want) {
						identical = false
					}
				}
			}
		}
		// The reconstruction must match the sequential one bit for bit.
		seqRec, err := core.Retrieve(context.Background(), &ref.Header, ref, plan, core.RetrieveOptions{Workers: 1})
		if err != nil {
			log.Fatal(err)
		}
		for i, v := range rec.Data() {
			if math.Float64bits(v) != math.Float64bits(seqRec.Data()[i]) {
				identical = false
				break
			}
		}
		fmt.Printf("%7d %10s %10s   %v\n", workers, compressTime.Round(time.Millisecond),
			retrieveTime.Round(time.Millisecond), identical)
		if !identical {
			log.Fatal("determinism invariant violated")
		}
	}
	fmt.Println("\nevery worker count produced byte-identical segments and reconstructions")
}
