package dmgard

import (
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

// Records converts one field's theory-controlled bound sweep
// (core.SweepBounds under h.TheoryBound()) into one training record per
// bound (§III-C steps 1–2): the field's features, the plane counts the
// greedy retriever chose, and the *achieved* maximum error of the resulting
// reconstruction (the red curves of Fig. 2), which becomes the model input
// in place of the user-requested bound.
func Records(field *grid.Tensor, h *core.Header, sweep []core.SweepPoint) []Record {
	feat := CombineFeatures(features.Extract(field, h.Timestep), h)
	records := make([]Record, len(sweep))
	for i, p := range sweep {
		records[i] = Record{
			Features:    feat,
			AchievedErr: p.AchievedErr / h.ValueRange,
			Planes:      append([]int(nil), p.Plan.Planes...),
		}
	}
	return records
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
