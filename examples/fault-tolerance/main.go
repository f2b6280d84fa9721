// Fault tolerance: retrieve through a flaky storage hierarchy. The cold
// tiers that make progressive retrieval worthwhile (HDD, tape, remote
// object stores, §II-A) are exactly where transient I/O errors, latency
// spikes and bit-rot live, so the fetch path must survive them instead of
// failing closed. This walkthrough shows the three layers:
//
//  1. a RetryingSource absorbing a 20% transient-fault rate with bounded
//     retries and exponential backoff — the reconstruction is byte-identical
//     to the fault-free run;
//  2. a degraded-mode session: when a plane is permanently lost, Refine
//     falls back to the deepest consistent plane prefix and reports the
//     error bound still achieved, instead of returning an error;
//  3. manifest checksums: a corrupted tiered payload is detected before it
//     reaches the decoder.
//
// Run with: go run ./examples/fault-tolerance
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pmgard/internal/core"
	"pmgard/internal/faults"
	"pmgard/internal/grid"
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
	dir, err := os.MkdirTemp("", "pmgard-faults")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store := filepath.Join(dir, "tiered")
	hier, err := storage.DefaultHierarchy(len(c.Header.Levels))
	if err != nil {
		log.Fatal(err)
	}
	if err := c.WriteTiered(store, hier); err != nil {
		log.Fatal(err)
	}
	h, st, err := core.OpenFile(store)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	est := h.Bound()
	tol := h.AbsTolerance(1e-4)

	// 1 — fault-free baseline, then the same retrieval through a source
	// that fails 20% of read attempts, behind the retry layer.
	clean, _, err := core.RetrieveTolerance(context.Background(), h, st, est, tol, core.RetrieveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	flaky := faults.WrapSource(st, faults.Config{Seed: 42, TransientRate: 0.20}, nil)
	retrying := storage.NewRetryingSource(flaky, storage.DefaultRetryPolicy(), nil)
	rec, _, err := core.RetrieveTolerance(context.Background(), h, retrying, est, tol, core.RetrieveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rs, is := retrying.Stats(), flaky.Stats()
	fmt.Printf("1. flaky tier (20%% transient): %d injected faults over %d attempts,\n", is.Transient, is.Reads)
	fmt.Printf("   %d retries, %d reads recovered — reconstruction byte-identical: %v\n",
		rs.Retries, rs.Recovered, grid.MaxAbsDiff(clean, rec) == 0)

	// 2 — degraded mode: level 2 loses everything below plane 2
	// permanently. The session keeps the consistent prefix and reports
	// what the reconstruction still guarantees.
	lost := faults.WrapSource(st, faults.Config{
		Seed:      42,
		Permanent: []faults.PlaneID{{Level: 2, Plane: 2}},
	}, nil)
	sess, err := core.NewSession(h, storage.NewRetryingSource(lost, storage.DefaultRetryPolicy(), nil))
	if err != nil {
		log.Fatal(err)
	}
	drec, _, deg, err := sess.Refine(context.Background(), est, tol)
	if err != nil {
		log.Fatal(err)
	}
	if deg == nil {
		log.Fatal("expected a degradation report")
	}
	fmt.Printf("2. plane (2,2) lost: requested planes %v, decoded %v\n", deg.Requested, deg.Got)
	fmt.Printf("   requested tol %.3e, degraded bound %.3e, measured error %.3e (within bound: %v)\n",
		deg.RequestedTol, deg.AchievedBound, grid.MaxAbsDiff(field, drec),
		grid.MaxAbsDiff(field, drec) <= deg.AchievedBound)

	// 3 — bit-rot on disk: flip one byte in a tier file; the manifest
	// checksum rejects the payload before the decoder sees it.
	tier, err := st.TierOf(0)
	if err != nil {
		log.Fatal(err)
	}
	level0 := filepath.Join(store, tier, "level_0.seg")
	blob, err := os.ReadFile(level0)
	if err != nil {
		log.Fatal(err)
	}
	blob[0] ^= 0xFF
	if err := os.WriteFile(level0, blob, 0o644); err != nil {
		log.Fatal(err)
	}
	h2, st2, err := core.OpenFile(store)
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	_, err = st2.ReadSegment(storage.SegmentID{Level: 0, Plane: 0})
	fmt.Printf("3. flipped one byte in %s/level_0.seg: read fails with checksum error: %v\n", tier, err != nil)

	// And the degraded session turns even that into a usable answer:
	// corruption classifies as permanent, so level 0 is dropped entirely
	// and the report says what accuracy is left.
	sess2, err := core.NewSession(h2, storage.NewRetryingSource(st2, storage.DefaultRetryPolicy(), nil))
	if err != nil {
		log.Fatal(err)
	}
	_, _, deg2, err := sess2.Refine(context.Background(), est, tol)
	if err != nil {
		log.Fatal(err)
	}
	if deg2 != nil {
		fmt.Printf("   degraded retrieval around the corruption: decoded planes %v, bound %.3e\n",
			deg2.Got, deg2.AchievedBound)
	}
}
