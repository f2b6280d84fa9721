package dmgard

import (
	"context"
	"fmt"
	"math"

	"pmgard/internal/core"
	"pmgard/internal/features"
	"pmgard/internal/grid"
)

// HeaderFeatures derives per-level inputs from the compression header: the
// log-scaled starting error of each level relative to the value range
// (Err[l][0] is the max coefficient magnitude, known before any payload
// read). The number of planes a tolerance needs on level l is roughly
// log2(Err[l][0]/tol), so these features carry most of the signal and are
// what lets a model trained on one field transfer to a sibling field with a
// different spectrum.
func HeaderFeatures(h *core.Header) []float64 {
	out := make([]float64, len(h.Levels))
	rng := h.ValueRange
	if rng <= 0 {
		rng = 1
	}
	for l, lm := range h.Levels {
		out[l] = math.Log10(lm.ErrMatrix[0]/rng + 1e-300)
	}
	return out
}

// CombineFeatures assembles the full D-MGARD input: the field's statistical
// features followed by the header-derived per-level features.
func CombineFeatures(fieldFeatures []float64, h *core.Header) []float64 {
	out := make([]float64, 0, len(fieldFeatures)+len(h.Levels))
	out = append(out, fieldFeatures...)
	out = append(out, HeaderFeatures(h)...)
	return out
}

// Harvest runs the original theory-controlled MGARD pipeline on one field
// across a sweep of relative error bounds and emits one training record per
// bound (§III-C steps 1–2): the field's features, the plane counts the
// greedy retriever chose, and the *achieved* maximum error of the resulting
// reconstruction (the red curves of Fig. 2), which becomes the model input
// in place of the user-requested bound.
//
// The compressed form is returned too so callers can reuse it for
// evaluation without recompressing.
func Harvest(field *grid.Tensor, fieldName string, timestep int, cfg core.Config, relBounds []float64) ([]Record, *core.Compressed, error) {
	if len(relBounds) == 0 {
		return nil, nil, fmt.Errorf("dmgard: no error bounds to sweep")
	}
	c, err := core.Compress(field, cfg, fieldName, timestep)
	if err != nil {
		return nil, nil, err
	}
	h := &c.Header
	est := h.TheoryEstimator()
	feat := CombineFeatures(features.Extract(field, timestep), h)
	records := make([]Record, 0, len(relBounds))
	for _, rel := range relBounds {
		if rel <= 0 {
			return nil, nil, fmt.Errorf("dmgard: non-positive relative bound %g", rel)
		}
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			// Constant field: nothing to learn from this bound.
			continue
		}
		rec, plan, err := core.RetrieveTolerance(context.Background(), h, c, est, tol, core.RetrieveOptions{})
		if err != nil {
			return nil, nil, fmt.Errorf("dmgard: sweep bound %g: %w", rel, err)
		}
		records = append(records, Record{
			Features:    feat,
			AchievedErr: grid.MaxAbsDiff(field, rec) / h.ValueRange,
			Planes:      append([]int(nil), plan.Planes...),
		})
	}
	return records, c, nil
}

// DefaultRelBounds returns the paper's 81-value relative error-bound sweep:
// {1..9}×10⁻⁹ through {1..9}×10⁻¹ (§IV-A3).
func DefaultRelBounds() []float64 {
	var bounds []float64
	for exp := -9; exp <= -1; exp++ {
		for mant := 1; mant <= 9; mant++ {
			bounds = append(bounds, float64(mant)*pow10(exp))
		}
	}
	return bounds
}

func pow10(exp int) float64 {
	v := 1.0
	for i := 0; i < exp; i++ {
		v *= 10
	}
	for i := 0; i > exp; i-- {
		v /= 10
	}
	return v
}
