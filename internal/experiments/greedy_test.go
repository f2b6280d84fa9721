package experiments

import (
	"context"
	"errors"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/sim/warpx"
)

func TestRetrieveHybridRepairsBadSeed(t *testing.T) {
	f, err := warpx.DefaultConfig(17, 9, 9).Field("Ex", 32)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compress(f, core.DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	tol := h.AbsTolerance(1e-5)
	// A hopeless seed (nothing fetched): the hybrid must extend it until
	// the bound is satisfied.
	seed := make([]int, len(h.Levels))
	rec, plan, err := hybridRetrieve(context.Background(), h, c, seed, h.Bound(), tol, core.RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bytes == 0 {
		t.Fatal("hybrid accepted an empty plan for a tight tolerance")
	}
	if achieved := grid.MaxAbsDiff(f, rec); achieved > tol {
		t.Fatalf("hybrid violated tolerance: %g > %g", achieved, tol)
	}
	// Validation propagates.
	if _, _, err := hybridRetrieve(context.Background(), h, c, []int{1}, h.Bound(), tol, core.RetrieveOptions{}); err == nil {
		t.Fatal("short seed accepted")
	}
	// The caller's cancellation and telemetry sink are honoured.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := hybridRetrieve(cancelled, h, c, seed, h.Bound(), tol, core.RetrieveOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want Canceled", err)
	}
	o := obs.New()
	if _, _, err := hybridRetrieve(context.Background(), h, c, seed, h.Bound(), tol, core.RetrieveOptions{Obs: o}); err != nil {
		t.Fatal(err)
	}
	var fetched int64
	for _, b := range plan.Planes {
		fetched += int64(b)
	}
	if got := o.Metrics.Snapshot().Counters["core.session.planes_fetched"]; got != fetched {
		t.Fatalf("core.session.planes_fetched = %d, want the plan's %d", got, fetched)
	}
}
