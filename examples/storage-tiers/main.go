// Storage tiers: persist a compressed field as a tiered store — one
// directory per tier of a simulated HPC storage hierarchy (NVMe → SSD → HDD
// → tape, §II-A) holding the coefficient levels placed on it — and show how
// the modeled retrieval time grows as tighter tolerances reach into slower
// tiers.
//
// Run with: go run ./examples/storage-tiers
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pmgard/internal/core"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

func main() {
	field, err := warpx.DefaultConfig(17, 17, 17).Field("Ex", 24)
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), "Ex", 24)
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "pmgard-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	hier, err := storage.DefaultHierarchy(len(c.Header.Levels))
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(dir, "ex.tiered")
	if err := c.WriteTiered(path, hier); err != nil {
		log.Fatal(err)
	}

	// OpenFile takes either layout: a directory is a tiered store.
	h, st, err := core.OpenFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	fmt.Println("level → tier placement:")
	for l, tierIx := range hier.Placement {
		tier := hier.Tiers[tierIx]
		var levelBytes int64
		for _, s := range h.Levels[l].PlaneSizes {
			levelBytes += s
		}
		fmt.Printf("  level %d (%7d bytes) → %-4s (%.0f MB/s, %.3g s latency)\n",
			l, levelBytes, tier.Name, tier.Bandwidth/1e6, tier.Latency)
	}

	fmt.Println("\nrel_bound  bytes_read  ranged_reads  modeled_io_time  planes/level")
	for _, rel := range []float64{1e-1, 1e-3, 1e-5, 1e-7} {
		st.ResetCounters()
		tol := h.AbsTolerance(rel)
		_, plan, err := core.RetrieveTolerance(context.Background(), h, st, h.Bound(), tol, core.RetrieveOptions{})
		if err != nil {
			log.Fatal(err)
		}
		// A plane prefix is contiguous, so each touched level costs one
		// ranged read on its tier.
		reqs := make([]int, len(plan.Planes))
		for l, b := range plan.Planes {
			if b > 0 {
				reqs[l] = 1
			}
		}
		tm, err := hier.PlanTime(plan.BytesPerLevel, reqs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%9.0e %11d %13d %14.4g s  %v\n", rel, st.BytesRead(), st.Requests(), tm, plan.Planes)
	}
	fmt.Println("\nthe greedy retriever reaches the tape tier for level 4's cheap top planes")
	fmt.Println("at every tolerance, so its fixed latency dominates; tighter tolerances")
	fmt.Println("grow the bytes moved from the slow tiers")
}
