// Progressive analysis: the exploratory post-hoc workflow the framework is
// built for. An analyst opens a stored field, looks at a cheap coarse
// render, zooms into a region of interest, and progressively tightens the
// accuracy — every step reads only the delta it needs.
//
// Run with: go run ./examples/progressive-analysis
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pmgard/internal/core"
	"pmgard/internal/sim/warpx"
)

func main() {
	// A stored WarpX current-density dump.
	field, err := warpx.DefaultConfig(17, 17, 17).Field("Jx", 40)
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), "Jx", 40)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "pmgard-analysis")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "jx.pmgd")
	if err := c.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	h, st, err := core.OpenFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	fmt.Printf("stored field: dims %v, %d payload bytes\n\n", h.Dims, h.TotalBytes())

	// Step 1 — cheap overview: reconstruct only the coarse 5³ grid from the
	// first three levels (a fraction of the data, a fraction of the compute).
	coarse, plan, err := core.RetrieveResolution(context.Background(), h, st, []int{32, 32, 32, 0, 0}, 2, core.RetrieveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1. overview at %v: %d bytes (%.0f%% of store)\n",
		coarse.Dims(), plan.Bytes, 100*float64(plan.Bytes)/float64(h.TotalBytes()))

	// Step 2 — the analyst spots structure and pulls the full grid at a
	// loose tolerance through a progressive session.
	sess, err := core.NewSession(h, st)
	if err != nil {
		log.Fatal(err)
	}
	est := h.Bound()
	rec, _, _, err := sess.Refine(context.Background(), est, h.AbsTolerance(1e-2))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("2. full grid @1e-2: session has fetched %d bytes\n", sess.BytesFetched())

	// Step 3 — slice the region of interest around the wake maximum.
	lo, hi := []int{4, 4, 4}, []int{13, 13, 13}
	roi := rec.Slice(lo, hi)
	fmt.Printf("3. region of interest %v–%v: %v values, range %.4g\n",
		lo, hi, roi.Dims(), roi.Range())

	// Step 4 — tighten twice; each refinement reads only the delta.
	for _, rel := range []float64{1e-4, 1e-6} {
		before := sess.BytesFetched()
		rec, _, _, err = sess.Refine(context.Background(), est, h.AbsTolerance(rel))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("4. refined to %g: +%d bytes (total %d)\n",
			rel, sess.BytesFetched()-before, sess.BytesFetched())
	}
	fmt.Printf("\nfinal accuracy everywhere, including the ROI, for %d of %d bytes\n",
		sess.BytesFetched(), h.TotalBytes())
}
