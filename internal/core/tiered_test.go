package core

import (
	"context"
	"path/filepath"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/storage"
)

func TestTieredWorkflow(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 4)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := storage.DefaultHierarchy(len(c.Header.Levels))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "tiered")
	if err := c.WriteTiered(dir, hier); err != nil {
		t.Fatal(err)
	}
	h, st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if h.FieldName != "Ex" || h.Timestep != 4 {
		t.Fatalf("header lost: %+v", h)
	}
	tol := h.AbsTolerance(1e-4)
	rec, plan, err := RetrieveTolerance(context.Background(), h, st, h.TheoryEstimator(), tol, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if achieved := grid.MaxAbsDiff(f, rec); achieved > tol {
		t.Fatalf("achieved %g > tol %g through tiered store", achieved, tol)
	}
	// Accounting must cover exactly the planned bytes, attributed to tiers.
	var total int64
	for _, b := range st.TierBytes() {
		total += b
	}
	if total != plan.Bytes {
		t.Fatalf("tier bytes %d != plan bytes %d", total, plan.Bytes)
	}
	// Coarse level's tier must have been touched.
	fastTier := hier.Tiers[hier.Placement[0]].Name
	if st.TierBytes()[fastTier] == 0 {
		t.Fatalf("fast tier %s saw no reads", fastTier)
	}
}

func TestWriteTieredPlacementMismatch(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	hier, _ := storage.DefaultHierarchy(3) // field has 5 levels
	if err := c.WriteTiered(filepath.Join(t.TempDir(), "x"), hier); err == nil {
		t.Fatal("placement/level mismatch accepted")
	}
}
