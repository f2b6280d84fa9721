package retrieval_test

import (
	"math"
	"slices"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/warpx"
)

// The planner as it ran on error vectors before every estimator became a
// bound table, kept verbatim as the reference: the theory and per-level
// Estimate formulas, and the greedy loop that re-estimated its error
// vector after every extension.

func theoryEstimate(c float64, levelErrs []float64) float64 {
	sum := 0.0
	for _, e := range levelErrs {
		sum += e
	}
	return c * sum
}

func perLevelEstimate(c, levelErrs []float64) float64 {
	sum := 0.0
	for l, e := range levelErrs {
		sum += float64(c[l] * e)
	}
	return sum
}

func referenceExtend(levels []retrieval.LevelInfo, planes []int, errs []float64) (level, step int, ok bool) {
	level = -1
	bestEff := 0.0
	for l, li := range levels {
		for n := 1; n <= 4; n++ {
			b := planes[l] + n
			if b > len(li.PlaneSizes) {
				continue
			}
			reduction := errs[l] - li.ErrMatrix[b]
			if reduction <= 0 {
				continue
			}
			size := int64(0)
			for k := planes[l]; k < b; k++ {
				size += li.PlaneSizes[k]
			}
			var eff float64
			if size == 0 {
				eff = math.Inf(1)
			} else {
				eff = reduction / float64(size)
			}
			if eff > bestEff {
				bestEff, level, step = eff, l, n
			}
		}
	}
	if level < 0 {
		maxErr := 0.0
		for l, li := range levels {
			if planes[l] < len(li.PlaneSizes) && errs[l] > maxErr {
				maxErr, level, step = errs[l], l, 1
			}
		}
	}
	return level, step, level >= 0
}

func referencePlan(t *testing.T, levels []retrieval.LevelInfo, estimate func([]float64) float64, tol float64) retrieval.Plan {
	t.Helper()
	planes := make([]int, len(levels))
	errs := make([]float64, len(levels))
	for l, li := range levels {
		errs[l] = li.ErrMatrix[0]
	}
	for !(estimate(errs) <= tol) {
		level, step, ok := referenceExtend(levels, planes, errs)
		if !ok {
			break
		}
		planes[level] += step
		errs[level] = levels[level].ErrMatrix[planes[level]]
	}
	plan, err := retrieval.PlanForPlanes(levels, planes)
	if err != nil {
		t.Fatal(err)
	}
	plan.EstimatedError = estimate(errs)
	return plan
}

// TestBoundTablePlansSameBits pins the bound table to the planner it
// replaced: on WarpX Jx/Ex/Bx at 17³, 2–5 levels, the update step on and
// off, every default relative bound plus one below the quantization floor,
// the theory bound and a per-level bound plan the same planes and bytes
// with a bit-identical EstimatedError. A table whose shape disagrees with
// the levels is an error, not a panic.
func TestBoundTablePlansSameBits(t *testing.T) {
	rels := append(dmgard.DefaultRelBounds(), 1e-13)
	exact := []float64{1, 4.36, 5.59, 7, 7}
	for _, name := range []string{"Jx", "Ex", "Bx"} {
		field, err := warpx.DefaultConfig(17, 17, 17).Field(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		for levelCount := 2; levelCount <= 5; levelCount++ {
			for _, update := range []bool{true, false} {
				cfg := core.DefaultConfig()
				cfg.Decompose = codec.Options{Levels: levelCount, Update: update, UpdateWeight: 0.25}
				c, err := core.Compress(field, cfg, name, 5)
				if err != nil {
					t.Fatal(err)
				}
				h := &c.Header
				levels := h.LevelInfos()
				theory := h.TheoryEstimator()
				cs := exact[:levelCount]
				bounds := []struct {
					name     string
					bound    retrieval.Bound
					estimate func([]float64) float64
				}{
					{"theory", theory, func(e []float64) float64 { return theoryEstimate(theory.C, e) }},
					{"per-level", retrieval.PerLevel(levels, cs), func(e []float64) float64 { return perLevelEstimate(cs, e) }},
				}
				for _, b := range bounds {
					for _, rel := range rels {
						tol := h.AbsTolerance(rel)
						got, err := retrieval.GreedyPlan(levels, b.bound, tol)
						if err != nil {
							t.Fatal(err)
						}
						want := referencePlan(t, levels, b.estimate, tol)
						if !slices.Equal(got.Planes, want.Planes) || got.Bytes != want.Bytes ||
							math.Float64bits(got.EstimatedError) != math.Float64bits(want.EstimatedError) {
							t.Fatalf("%s L=%d update=%v %s rel %g: planes %v bytes %d bound %x, reference %v %d %x",
								name, levelCount, update, b.name, rel, got.Planes, got.Bytes, math.Float64bits(got.EstimatedError),
								want.Planes, want.Bytes, math.Float64bits(want.EstimatedError))
						}
					}
				}
				for i, bad := range []retrieval.Bound{
					retrieval.Theory(levels[1:], theory.C),
					retrieval.PerLevel(levels, append(slices.Clone(cs), 1)),
					{C: 1, T: append(slices.Clone(theory.T[:levelCount-1]), theory.T[levelCount-1][:1])},
				} {
					if _, err := retrieval.GreedyPlan(levels, bad, h.AbsTolerance(1e-4)); err == nil {
						t.Fatalf("%s L=%d update=%v: bound shape %d accepted", name, levelCount, update, i)
					}
				}
			}
		}
	}
}
