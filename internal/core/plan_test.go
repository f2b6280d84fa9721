package core

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"sync"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
)

// TestSessionRefineFetchesFewestNewBytes walks one session 1e-2 → 1e-4 →
// 1e-6 under both bounds: each step keeps every plane it holds, fetches
// exactly the planes its plan adds — the fewest new bytes the bound allows
// above what it holds (retrieval.ExactPlan), never more than MGARD's greedy
// would add from there — and meets the tolerance on the bound and on the
// original. The fresh step plans what a one-shot read plans.
func TestSessionRefineFetchesFewestNewBytes(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	for _, bound := range []retrieval.Bound{h.Bound(), h.TheoryBound()} {
		s, err := NewSession(h, c)
		if err != nil {
			t.Fatal(err)
		}
		held := make([]int, len(h.Levels))
		var fetched int64
		for i, rel := range []float64{1e-2, 1e-4, 1e-6} {
			tol := h.AbsTolerance(rel)
			want, err := retrieval.ExactPlan(h.LevelInfos(), bound, tol, held)
			if err != nil {
				t.Fatal(err)
			}
			greedy, err := retrieval.RefinePlan(h.LevelInfos(), held, bound, tol)
			if err != nil {
				t.Fatal(err)
			}
			rec, plan, deg, err := s.Refine(context.Background(), bound, tol)
			if err != nil || deg != nil {
				t.Fatalf("rel %g: %v, degradation %+v", rel, err, deg)
			}
			added := s.BytesFetched() - fetched
			if !slices.Equal(plan.Planes, want.Planes) || !slices.Equal(s.Fetched(), plan.Planes) || added != plan.Bytes-heldBytes(h, held) {
				t.Fatalf("rel %g: planes %v (session holds %v, fetched %d B), exact plan %v", rel, plan.Planes, s.Fetched(), added, want.Planes)
			}
			if plan.Bytes > greedy.Bytes || !(plan.EstimatedError <= tol) || grid.MaxAbsDiff(f, rec) > tol {
				t.Fatalf("rel %g: %d B bound %g achieved %g, greedy %d B, tolerance %g", rel, plan.Bytes, plan.EstimatedError, grid.MaxAbsDiff(f, rec), greedy.Bytes, tol)
			}
			if i == 0 {
				_, oneShot, err := RetrieveTolerance(context.Background(), h, c, bound, tol, RetrieveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(oneShot.Planes, plan.Planes) {
					t.Fatalf("fresh session plans %v, one-shot read %v", plan.Planes, oneShot.Planes)
				}
			}
			held, fetched = plan.Planes, s.BytesFetched()
		}
		s.Close()
	}
}

func heldBytes(h *Header, planes []int) int64 {
	p, _ := retrieval.PlanForPlanes(h.LevelInfos(), planes)
	return p.Bytes
}

// TestHeaderBoundsMemoized checks that a header builds each bound table
// once and shares it — also when its first plans run at once, as a server's
// first requests do — that the memo stays out of the header's JSON, and
// that a header copied by value — whose levels may then be edited — builds
// tables of its own.
func TestHeaderBoundsMemoized(t *testing.T) {
	c, err := Compress(testField(t), DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	before, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	tol := h.AbsTolerance(1e-3)
	plans := make([][]int, 8)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := retrieval.ExactPlan(h.LevelInfos(), h.Bound(), tol, nil)
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p.Planes
		}()
	}
	wg.Wait()
	b, theory := h.Bound(), h.TheoryBound()
	want, err := retrieval.ExactPlan(h.LevelInfos(), retrieval.Bound{C: b.C, T: b.T}, tol, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if !slices.Equal(p, want.Planes) {
			t.Fatalf("concurrent first plan %d: %v, want %v", i, p, want.Planes)
		}
	}
	if again := h.Bound(); &again.T[0][0] != &b.T[0][0] {
		t.Fatal("Bound built its table twice")
	}
	if again := h.TheoryBound(); again.C != theory.C || &again.T[0][0] != &theory.T[0][0] {
		t.Fatal("TheoryBound built its table twice")
	}
	after, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("the bound memo reached the header's JSON")
	}
	copied := *h
	copied.Levels = slices.Clone(h.Levels)
	copied.Levels[0].ErrMatrix = slices.Clone(h.Levels[0].ErrMatrix)
	copied.Levels[0].ErrMatrix[0] *= 2
	if got := copied.Bound(); &got.T[0][0] == &b.T[0][0] || got.T[0][0] != 2*b.T[0][0] {
		t.Fatalf("a copied header reused the original's bound table: T[0][0] %g, original %g", got.T[0][0], b.T[0][0])
	}
}
