package experiments

import (
	"context"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
)

// pathPoint is one stop along the greedy retrieval path of a compressed
// field, annotated with both the theory estimate and the *measured*
// reconstruction error at that prefix. The oracle cost of a tolerance is
// the bytes at the first point whose measured error clears it; the theory
// cost is the bytes at the first point whose estimate clears it. The gap
// between the two is exactly the overhead of Figs. 1–2.
type pathPoint struct {
	Bytes     int64
	Planes    []int
	TheoryEst float64
	ActualErr float64
}

// pathProfile walks the full greedy path of a compressed field on one
// measured walk, recording the true reconstruction error at every step. The
// zeroth point is the empty retrieval.
func pathProfile(field *grid.Tensor, c *core.Compressed) ([]pathPoint, error) {
	h := &c.Header
	infos := h.LevelInfos()
	est := h.TheoryEstimator()
	steps, err := retrieval.GreedySequence(infos)
	if err != nil {
		return nil, err
	}
	zero := retrieval.Step{Planes: make([]int, len(infos))}
	w, err := core.NewWalker(h, c, field)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	points := make([]pathPoint, 0, len(steps)+1)
	for _, s := range append([]retrieval.Step{zero}, steps...) {
		_, actual, err := w.Stop(context.Background(), s.Planes)
		if err != nil {
			return nil, err
		}
		points = append(points, pathPoint{
			Bytes:     s.Bytes,
			Planes:    s.Planes,
			TheoryEst: est.At(s.Planes),
			ActualErr: actual,
		})
	}
	return points, nil
}

// stopAtTheory returns the first path point whose theory estimate is within
// tol (or the last point if none is).
func stopAtTheory(points []pathPoint, tol float64) pathPoint {
	for _, p := range points {
		if p.TheoryEst <= tol {
			return p
		}
	}
	return points[len(points)-1]
}

// stopAtOracle returns the cheapest path point whose measured error is
// within tol (or the last point if none is). Measured error is not
// monotone along the path, so the scan takes the first clearance.
func stopAtOracle(points []pathPoint, tol float64) pathPoint {
	for _, p := range points {
		if p.ActualErr <= tol {
			return p
		}
	}
	return points[len(points)-1]
}
