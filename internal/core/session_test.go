package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pmgard/internal/faults"
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
	est := h.TheoryEstimator()

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
	est := h.TheoryEstimator()
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
	est := h.TheoryEstimator()
	tol := h.AbsTolerance(1e-5)
	// The transient failure on (2,1) must abort Refine with an error...
	if _, _, deg, err := s.Refine(context.Background(), est, tol); err == nil || deg != nil {
		t.Fatalf("transient failure did not abort: deg=%v err=%v", deg, err)
	}
	// ...leaving fetched/planes/bytes in agreement: every fetched plane is
	// cached, every non-fetched plane is not, and the byte count matches.
	for l, b := range s.fetched {
		for k := 0; k < h.Planes; k++ {
			if (s.planes[l][k] != nil) != (k < b) {
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

func TestSessionDegradedRefine(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	est := h.TheoryEstimator()
	tol := h.AbsTolerance(1e-5)
	// Level 2 permanently loses every plane from 1 up.
	flaky := faults.WrapSource(c, faults.Config{Permanent: []faults.PlaneID{{Level: 2, Plane: 1}}})
	s, err := NewSession(h, flaky)
	if err != nil {
		t.Fatal(err)
	}
	rec, plan, deg, err := s.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatalf("permanent loss was a hard failure: %v", err)
	}
	if deg == nil {
		t.Fatal("no degradation reported")
	}
	if len(deg.Dropped) != 1 || deg.Dropped[0] != (storage.SegmentID{Level: 2, Plane: 1}) {
		t.Fatalf("dropped %v, want [(2,1)]", deg.Dropped)
	}
	if deg.Got[2] != 1 {
		t.Fatalf("level 2 decoded %d planes, want the deepest consistent prefix of 1", deg.Got[2])
	}
	if deg.RequestedTol != tol {
		t.Fatalf("requested tol %g, want %g", deg.RequestedTol, tol)
	}
	for l, b := range deg.Got {
		if l != 2 && b != deg.Requested[l] {
			t.Fatalf("unaffected level %d degraded from %d to %d planes", l, deg.Requested[l], b)
		}
		if plan.Planes[l] != b {
			t.Fatalf("executed plan %v disagrees with Got %v", plan.Planes, deg.Got)
		}
	}
	// The reported bound is the estimator at the decoded plane counts and
	// the measured error respects it.
	levelErrs := make([]float64, len(h.Levels))
	for l := range levelErrs {
		levelErrs[l] = h.Levels[l].ErrMatrix[deg.Got[l]]
	}
	if want := est.Estimate(levelErrs); deg.AchievedBound != want {
		t.Fatalf("achieved bound %g, want estimator value %g", deg.AchievedBound, want)
	}
	if measured := grid.MaxAbsDiff(f, rec); measured > deg.AchievedBound {
		t.Fatalf("measured error %g exceeds reported degraded bound %g", measured, deg.AchievedBound)
	}
	// The degraded bound cannot beat the requested tolerance (planes were
	// lost, not gained).
	if deg.AchievedBound <= tol {
		t.Fatalf("degraded bound %g unexpectedly within tol %g", deg.AchievedBound, tol)
	}
	// A whole level lost from plane 0 still degrades, not fails.
	flaky0 := faults.WrapSource(c, faults.Config{Permanent: []faults.PlaneID{{Level: 0, Plane: 0}}})
	s0, err := NewSession(h, flaky0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, deg0, err := s0.Refine(context.Background(), est, tol)
	if err != nil || deg0 == nil || deg0.Got[0] != 0 {
		t.Fatalf("whole-level loss: deg=%+v err=%v", deg0, err)
	}
}

func TestSessionRefineThroughRetryingSourceByteIdentical(t *testing.T) {
	// Acceptance criterion: at a 20% transient fault rate with a fixed
	// seed, the RetryingSource-backed retrieval is byte-identical to the
	// fault-free run.
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	est := h.TheoryEstimator()
	pol := storage.DefaultRetryPolicy()
	pol.Sleep = func(time.Duration) {}
	for _, rel := range []float64{1e-2, 1e-4, 1e-6} {
		tol := h.AbsTolerance(rel)
		clean, _, err := RetrieveTolerance(context.Background(), h, c, est, tol, RetrieveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		flaky := faults.WrapSource(c, faults.Config{Seed: 1234, TransientRate: 0.20})
		r := storage.NewRetryingSource(flaky, pol)
		rec, _, err := RetrieveTolerance(context.Background(), h, r, est, tol, RetrieveOptions{})
		if err != nil {
			t.Fatalf("rel %g: flaky retrieval failed: %v", rel, err)
		}
		if grid.MaxAbsDiff(clean, rec) != 0 {
			t.Fatalf("rel %g: flaky reconstruction differs from fault-free run", rel)
		}
		if flaky.Stats().Transient == 0 {
			t.Fatalf("rel %g: no faults were actually injected", rel)
		}
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
	_, _, deg, err := s.Refine(context.Background(), h.TheoryEstimator(), h.AbsTolerance(1e-4))
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
