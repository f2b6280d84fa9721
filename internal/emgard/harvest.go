package emgard

import (
	"context"
	"fmt"

	"pmgard/internal/core"
	"pmgard/internal/grid"
)

// Harvest runs the theory-controlled pipeline on one field across a sweep
// of relative error bounds and emits one sample per bound: the header's
// pooled level summaries, the per-level truncation errors of the chosen
// plan, and the measured reconstruction error. These are the (input,
// target) pairs E-MGARD trains on.
func Harvest(field *grid.Tensor, fieldName string, timestep int, cfg core.Config, relBounds []float64) ([]Sample, *core.Compressed, error) {
	if len(relBounds) == 0 {
		return nil, nil, fmt.Errorf("emgard: no error bounds to sweep")
	}
	c, err := core.Compress(field, cfg, fieldName, timestep)
	if err != nil {
		return nil, nil, err
	}
	h := &c.Header
	est := h.TheoryEstimator()
	samples := make([]Sample, 0, len(relBounds))
	for _, rel := range relBounds {
		if rel <= 0 {
			return nil, nil, fmt.Errorf("emgard: non-positive relative bound %g", rel)
		}
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			continue
		}
		rec, plan, err := core.RetrieveTolerance(context.Background(), h, c, est, tol, core.RetrieveOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("emgard: sweep bound %g: %w", rel, err)
		}
		levelErrs := make([]float64, len(h.Levels))
		for l, lm := range h.Levels {
			levelErrs[l] = lm.ErrMatrix[plan.Planes[l]]
		}
		samples = append(samples, Sample{
			Pools:     h.LevelPools,
			LevelErrs: levelErrs,
			TrueErr:   grid.MaxAbsDiff(field, rec),
		})
	}
	return samples, c, nil
}
