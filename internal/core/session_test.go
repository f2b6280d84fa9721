package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/storage"
)

// gatedSource makes selected planes fail with a transient error until
// healed — the minimal model of a tier that comes back.
type gatedSource struct {
	src    storage.SegmentSource
	broken map[[2]int]bool
}

func (g *gatedSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if g.broken[[2]int{level, plane}] {
		return nil, fmt.Errorf("gated: level %d plane %d unavailable: %w", level, plane, storage.ErrTransient)
	}
	return g.src.Segment(ctx, level, plane)
}

// sessionBytes recomputes the payload bytes implied by the session's
// fetched plane counts, to cross-check its internal accounting.
func sessionBytes(h *Header, fetched []int) int64 {
	var total int64
	for l, b := range fetched {
		for k := 0; k < b; k++ {
			total += h.Levels[l].PlaneSizes[k]
		}
	}
	return total
}

func TestSessionFetchesOnlyDeltas(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	path := filepath.Join(t.TempDir(), "x.pmgd")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	h2, st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := NewSession(h2, st)
	if err != nil {
		t.Fatal(err)
	}
	est := h.TheoryBound()

	// Coarse first.
	if _, _, _, err := s.Refine(context.Background(), est, h.AbsTolerance(1e-1)); err != nil {
		t.Fatal(err)
	}
	coarseBytes := st.BytesRead()
	coarseFetched := s.Fetched()

	// Tighten: the session must only read the delta.
	if _, _, _, err := s.Refine(context.Background(), est, h.AbsTolerance(1e-5)); err != nil {
		t.Fatal(err)
	}
	totalBytes := st.BytesRead()
	if totalBytes <= coarseBytes {
		t.Fatal("refinement read nothing new")
	}
	// One-shot at the tight tolerance from a fresh store must cost at
	// least as much as the session's delta-only total.
	st.ResetCounters()
	if _, _, err := RetrieveTolerance(context.Background(), h2, st, est, h.AbsTolerance(1e-5), RetrieveOptions{}); err != nil {
		t.Fatal(err)
	}
	oneShot := st.BytesRead()
	if totalBytes > oneShot {
		t.Fatalf("session total %d exceeds one-shot %d — earlier reads were wasted", totalBytes, oneShot)
	}
	for l, have := range s.Fetched() {
		if have < coarseFetched[l] {
			t.Fatalf("level %d plane count went backwards", l)
		}
	}
	if s.BytesFetched() != totalBytes {
		t.Fatalf("session accounting %d != store accounting %d", s.BytesFetched(), totalBytes)
	}
}

func TestSessionLooseningIsFree(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	s, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	est := h.TheoryBound()
	if _, _, _, err := s.Refine(context.Background(), est, h.AbsTolerance(1e-5)); err != nil {
		t.Fatal(err)
	}
	before := s.BytesFetched()
	// Asking for a looser tolerance afterwards reads nothing.
	rec, _, _, err := s.Refine(context.Background(), est, h.AbsTolerance(1e-1))
	if err != nil {
		t.Fatal(err)
	}
	if s.BytesFetched() != before {
		t.Fatal("loosening the tolerance fetched data")
	}
	// And the reconstruction is still the tight one (never degrade).
	tol := h.AbsTolerance(1e-5)
	if achieved := grid.MaxAbsDiff(f, rec); achieved > tol {
		t.Fatalf("reconstruction degraded after loosening: %g > %g", achieved, tol)
	}
}

func TestSessionRefineToValidation(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(&c.Header, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RefineTo(context.Background(), []int{1}); err == nil {
		t.Fatal("short target accepted")
	}
	if _, err := s.RefineTo(context.Background(), []int{99, 0, 0, 0, 0}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := s.RefineTo(context.Background(), []int{-1, 0, 0, 0, 0}); err == nil {
		t.Fatal("negative target accepted")
	}
}

func TestSessionZeroTargetGivesZeroField(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(&c.Header, c)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s.RefineTo(context.Background(), make([]int, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rec.LinfNorm() != 0 || s.BytesFetched() != 0 {
		t.Fatal("empty refinement not free and zero")
	}
}

func TestSessionMidRefineFailureLeavesConsistentState(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	gate := &gatedSource{src: c, broken: map[[2]int]bool{{2, 1}: true}}
	s, err := NewSession(h, gate)
	if err != nil {
		t.Fatal(err)
	}
	est := h.TheoryBound()
	tol := h.AbsTolerance(1e-5)
	// The transient failure on (2,1) must abort Refine with an error...
	if _, _, deg, err := s.Refine(context.Background(), est, tol); err == nil || deg != nil {
		t.Fatalf("transient failure did not abort: deg=%v err=%v", deg, err)
	}
	// ...leaving fetched/planes/bytes in agreement: every fetched plane is
	// cached, every non-fetched plane is not, and the byte count matches.
	for l, b := range s.fetched {
		for k := 0; k < h.Planes; k++ {
			if (s.ws.planes[l][k] != nil) != (k < b) {
				t.Fatalf("level %d plane %d cache disagrees with fetched=%d", l, k, b)
			}
		}
	}
	if s.fetched[2] != 1 {
		t.Fatalf("level 2 fetched %d planes, want the 1 before the failure", s.fetched[2])
	}
	if got, want := s.BytesFetched(), sessionBytes(h, s.fetched); got != want {
		t.Fatalf("session accounting %d != %d implied by fetched planes", got, want)
	}
	// A second attempt while still broken must fail again, not corrupt state.
	if _, _, _, err := s.Refine(context.Background(), est, tol); err == nil {
		t.Fatal("still-broken source refined successfully")
	}
	// Once the source recovers, the same session completes and matches a
	// clean one-shot bit for bit, with no double-counted bytes.
	delete(gate.broken, [2]int{2, 1})
	rec, _, deg, err := s.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatal(err)
	}
	if deg != nil {
		t.Fatalf("recovered refinement reported degradation %+v", deg)
	}
	clean, _, err := RetrieveTolerance(context.Background(), h, c, est, tol, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if grid.MaxAbsDiff(rec, clean) != 0 {
		t.Fatal("post-recovery reconstruction differs from clean retrieval")
	}
	if got, want := s.BytesFetched(), sessionBytes(h, s.fetched); got != want {
		t.Fatalf("post-recovery accounting %d != %d (bytes double-counted?)", got, want)
	}
}

func TestSessionPermanentErrorWithoutSentinelStillDegrades(t *testing.T) {
	// A source returning os.ErrNotExist-wrapped errors (a deleted level
	// file) must classify permanent and degrade, even though it never
	// heard of the faults package.
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	s, err := NewSession(h, notExistSource{c})
	if err != nil {
		t.Fatal(err)
	}
	_, _, deg, err := s.Refine(context.Background(), h.TheoryBound(), h.AbsTolerance(1e-4))
	if err != nil {
		t.Fatalf("missing-file error was a hard failure: %v", err)
	}
	if deg == nil || deg.Got[1] != 0 {
		t.Fatalf("deg = %+v", deg)
	}
}

// notExistSource fails level 1 as if its tier file were deleted.
type notExistSource struct{ src storage.SegmentSource }

func (n notExistSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if level == 1 {
		return nil, fmt.Errorf("open level_1.seg: %w", os.ErrNotExist)
	}
	return n.src.Segment(ctx, level, plane)
}
