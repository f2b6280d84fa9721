// Shared plane cache: the multi-analyst serving scenario. N analysts open
// the same stored field at once and refine to the same tolerance — without
// sharing, every analyst pays the full store-read and decompression bill;
// with a shared servecache, the first request for each plane does the work
// and everyone else reuses it (concurrent requests coalesce onto one
// in-flight fetch). Per-analyst accounting is unchanged either way.
//
// Run with: go run ./examples/shared-cache
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync/atomic"

	"pmgard/internal/core"
	"pmgard/internal/pool"
	"pmgard/internal/servecache"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// countingSource counts raw store reads so the two serving strategies can
// be compared on the metric that matters: I/O issued to the store.
type countingSource struct {
	src   storage.SegmentSource
	reads atomic.Int64
}

func (c *countingSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	c.reads.Add(1)
	return c.src.Segment(ctx, level, plane)
}

func main() {
	const analysts = 8

	// One stored WarpX field, served to every analyst.
	field, err := warpx.DefaultConfig(17, 17, 17).Field("Ex", 10)
	if err != nil {
		log.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), "Ex", 10)
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "pmgard-shared")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "ex.pmgd")
	if err := c.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	h, st, err := core.OpenFile(path)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	est := h.Bound()
	tol := h.AbsTolerance(1e-4)

	// Strategy 1 — independent sessions: every analyst reads every plane.
	indep := &countingSource{src: st}
	err = pool.Run(context.Background(), analysts, analysts, nil, func(_, i int) error {
		s, err := core.NewSession(h, indep)
		if err != nil {
			return err
		}
		_, _, _, err = s.Refine(context.Background(), est, tol)
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("independent: %d analysts issued %d store reads\n", analysts, indep.reads.Load())

	// Strategy 2 — shared cache: concurrent requests for the same plane
	// coalesce onto one store read + one decompression.
	shared := &countingSource{src: st}
	cache := servecache.New(64<<20, nil)
	planes, err := core.NewPlaneStore(h, shared)
	if err != nil {
		log.Fatal(err)
	}
	var perAnalyst [analysts]int64
	err = pool.Run(context.Background(), analysts, analysts, nil, func(_, i int) error {
		s, err := core.NewSharedSession(h, planes, cache)
		if err != nil {
			return err
		}
		_, _, _, err = s.Refine(context.Background(), est, tol)
		perAnalyst[i] = s.BytesFetched()
		return err
	})
	if err != nil {
		log.Fatal(err)
	}
	st2 := cache.Stats()
	fmt.Printf("shared:      %d analysts issued %d store reads\n", analysts, shared.reads.Load())
	fmt.Printf("             cache: %d misses, %d hits, %d coalesced, %d bytes resident\n",
		st2.Misses, st2.Hits, st2.Coalesced, cache.Bytes())

	// Accounting is per-analyst even through the cache: every analyst is
	// billed for the planes their session consumed, shared or not.
	for i := 1; i < analysts; i++ {
		if perAnalyst[i] != perAnalyst[0] {
			log.Fatalf("analyst %d billed %d bytes, analyst 0 billed %d", i, perAnalyst[i], perAnalyst[0])
		}
	}
	fmt.Printf("             every analyst billed %d bytes, %.1fx fewer store reads\n",
		perAnalyst[0], float64(indep.reads.Load())/float64(shared.reads.Load()))
}
