package emgard

import "pmgard/internal/core"

// Samples converts one field's theory-controlled bound sweep
// (core.SweepBounds under h.TheoryBound()) into one sample per bound:
// the header's pooled level summaries, the per-level truncation errors of
// the chosen plan, and the measured reconstruction error. These are the
// (input, target) pairs E-MGARD trains on.
func Samples(h *core.Header, sweep []core.SweepPoint) []Sample {
	samples := make([]Sample, len(sweep))
	for i, p := range sweep {
		levelErrs := make([]float64, len(h.Levels))
		for l, lm := range h.Levels {
			levelErrs[l] = lm.ErrMatrix[p.Plan.Planes[l]]
		}
		samples[i] = Sample{Pools: h.LevelPools, LevelErrs: levelErrs, TrueErr: p.AchievedErr}
	}
	return samples
}
