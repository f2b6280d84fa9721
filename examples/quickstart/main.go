// Quickstart: compress one Gray-Scott field with the progressive pipeline
// and retrieve it at a few error tolerances, printing how little data each
// tolerance needs.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/sim/grayscott"
)

func main() {
	// 1. Simulate a few steps of the Gray-Scott reaction-diffusion system.
	sim, err := grayscott.New(grayscott.DefaultConfig(17))
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		sim.Step()
	}
	field := sim.FieldV()
	fmt.Printf("field Dv: dims %v, range %.4f\n", field.Dims(), field.Range())

	// 2. Compress: multilevel decomposition → nega-binary bit-planes →
	//    lossless coding, with the error matrix collected along the way.
	c, err := core.Compress(field, core.DefaultConfig(), "Dv", 20)
	if err != nil {
		log.Fatal(err)
	}
	h := &c.Header
	raw := int64(8 * field.Len())
	fmt.Printf("stored payload: %d bytes (raw %d, %.2fx)\n\n",
		h.TotalBytes(), raw, float64(raw)/float64(h.TotalBytes()))

	// 3. Progressive retrieval: each tolerance fetches only the bit-planes
	//    it needs. Tighter tolerance → more planes → more bytes.
	fmt.Println("rel_bound   bytes   % of stored   planes/level        achieved_err")
	for _, rel := range []float64{1e-1, 1e-2, 1e-4, 1e-6, 1e-8} {
		tol := h.AbsTolerance(rel)
		rec, plan, err := core.RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), tol, core.RetrieveOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%9.0e %7d %12.1f%%   %-18s %.3e\n",
			rel, plan.Bytes,
			100*float64(plan.Bytes)/float64(h.TotalBytes()),
			fmt.Sprint(plan.Planes), grid.MaxAbsDiff(field, rec))
	}
}
