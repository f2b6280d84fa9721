package core

import (
	"context"
	"fmt"
	"sort"

	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// Walker is a measured walk: one session over a compressed field, refined
// through a growing sequence of per-level plane counts, each stop's
// reconstruction measured against the original. It is the session holder of
// everything that asks "what error does this plan really achieve" — the
// model harvests, the experiments' oracle path, the backend probe — so a
// stop pays only for the planes the previous stop did not have.
type Walker struct {
	sess *Session
	orig *grid.Tensor
}

// NewWalker opens a measured walk over (h, src) against the original field.
func NewWalker(h *Header, src storage.SegmentSource, orig *grid.Tensor) (*Walker, error) {
	sess, err := NewSession(h, src)
	if err != nil {
		return nil, err
	}
	return &Walker{sess: sess, orig: orig}, nil
}

// Stop refines the walk to planes and returns the reconstruction — bit for
// bit what a fresh Retrieve of planes returns — and its L∞ error on the
// original. A session never un-reads a plane, so planes must hold at least
// what the walk already holds on every level: a stop below it is an error,
// never a silently larger reconstruction. A failed stop (a lost plane, ctx
// ending) keeps the planes it did fetch; the walk resumes from them.
func (w *Walker) Stop(ctx context.Context, planes []int) (*grid.Tensor, float64, error) {
	for l, have := range w.sess.Fetched() {
		if l < len(planes) && planes[l] < have {
			return nil, 0, fmt.Errorf("core: walk stop asks %d planes on level %d, below the %d already held", planes[l], l, have)
		}
	}
	rec, err := w.sess.RefineTo(ctx, planes)
	if err != nil {
		return nil, 0, err
	}
	return rec, grid.MaxAbsDiff(w.orig, rec), nil
}

// Close ends the walk and hands its session's workspace back to the pool
// (Session.Close): the latest stop's tensor must not be touched afterwards.
func (w *Walker) Close() { w.sess.Close() }

// SweepPoint is one bound of a measured sweep: the plan the bound chose
// for it and the error that plan really achieved.
type SweepPoint struct {
	// RelBound is the relative error bound; Tolerance the absolute one.
	RelBound, Tolerance float64
	// Plan is MGARD's greedy plan (retrieval.Greedy) under the sweep's
	// bound at Tolerance.
	Plan retrieval.Plan
	// AchievedErr is the measured L∞ error of Plan's reconstruction.
	AchievedErr float64
}

// SweepBounds plans every relative bound with MGARD's greedy under bound,
// as the paper's offline stage ran it, and measures each plan on one walk,
// loosest bound first — greedy plans are stops of one path, so they grow
// with the bound tightening. The points come back in the order of rels. A
// constant field has no positive tolerance and yields no points.
func SweepBounds(ctx context.Context, h *Header, src storage.SegmentSource, orig *grid.Tensor, bound retrieval.Bound, rels []float64) ([]SweepPoint, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("core: no error bounds to sweep")
	}
	infos := h.LevelInfos()
	points := make([]SweepPoint, 0, len(rels))
	for _, rel := range rels {
		if rel <= 0 {
			return nil, fmt.Errorf("core: non-positive relative bound %g", rel)
		}
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			continue
		}
		plan, err := retrieval.Greedy(infos, bound, tol)
		if err != nil {
			return nil, fmt.Errorf("core: sweep bound %g: %w", rel, err)
		}
		points = append(points, SweepPoint{RelBound: rel, Tolerance: tol, Plan: plan})
	}
	order := make([]int, len(points))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return points[order[a]].Tolerance > points[order[b]].Tolerance })
	w, err := NewWalker(h, src, orig)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	for _, i := range order {
		p := &points[i]
		if _, p.AchievedErr, err = w.Stop(ctx, p.Plan.Planes); err != nil {
			return nil, fmt.Errorf("core: sweep bound %g: %w", p.RelBound, err)
		}
	}
	return points, nil
}

// TheorySweep is the harvest of the paper's offline stage (§III-C steps
// 1–2): it compresses the field once and sweeps the bounds under the
// original theory-based control. Both models' training sets are read off
// the one sweep (dmgard.Records, emgard.Samples).
func TheorySweep(field *grid.Tensor, cfg Config, fieldName string, timestep int, rels []float64) (*Compressed, []SweepPoint, error) {
	c, err := Compress(field, cfg, fieldName, timestep)
	if err != nil {
		return nil, nil, err
	}
	sweep, err := SweepBounds(context.Background(), &c.Header, c, field, c.Header.TheoryBound(), rels)
	if err != nil {
		return nil, nil, err
	}
	return c, sweep, nil
}
