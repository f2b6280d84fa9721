package retrieval_test

import (
	"cmp"
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
				theory := h.TheoryBound()
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
						got, err := retrieval.Greedy(levels, b.bound, tol)
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
					if _, err := retrieval.Greedy(levels, bad, h.AbsTolerance(1e-4)); err == nil {
						t.Fatalf("%s L=%d update=%v: bound shape %d accepted", name, levelCount, update, i)
					}
				}
			}
		}
	}
}

// referencePoint is one point of referenceFrontier.
type referencePoint struct {
	cost   int64
	sum    float64
	planes []int
}

// referenceFrontier is the plainest exact method's table: the full Pareto
// frontier of (bytes, bound sum) over all levels above held, every stage
// enumerated and sorted — no index, no skipping — cheapest first, ties to
// the smaller sum. The minimum-byte plan has the bytes and bound of its
// first point that clears the tolerance.
func referenceFrontier(levels []retrieval.LevelInfo, bound retrieval.Bound, held []int) []referencePoint {
	front := []referencePoint{{}}
	for l, li := range levels {
		var cands []referencePoint
		for _, p := range front {
			var cost int64
			for b := held[l]; b <= len(li.PlaneSizes); b++ {
				if b > held[l] {
					cost += li.PlaneSizes[b-1]
				}
				if t := bound.T[l][b]; !math.IsNaN(t) {
					cands = append(cands, referencePoint{p.cost + cost, p.sum + t, append(slices.Clone(p.planes), b)})
				}
			}
		}
		slices.SortFunc(cands, func(a, b referencePoint) int {
			if a.cost != b.cost {
				return cmp.Compare(a.cost, b.cost)
			}
			return cmp.Compare(a.sum, b.sum)
		})
		front = nil
		for _, c := range cands {
			if len(front) == 0 || c.sum < front[len(front)-1].sum {
				front = append(front, c)
			}
		}
	}
	return front
}

// TestExactPlanOnHeaders checks ExactPlan on real headers — WarpX Jx, Ex
// and Bx at 33³ with 2 to 7 levels, under the served and the theory bound,
// fresh, above the loosest plan's planes and above planes the fresh plans
// do not keep — against referenceFrontier: the same bytes and bound, a
// bound ≤ tol, and never more bytes than MGARD's greedy. Below the
// quantization floor it ends where the greedy ends.
func TestExactPlanOnHeaders(t *testing.T) {
	rels := []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-13}
	for _, name := range []string{"Jx", "Ex", "Bx"} {
		field, err := warpx.DefaultConfig(33, 33, 33).Field(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		for levelCount := 2; levelCount <= 7; levelCount++ {
			cfg := core.DefaultConfig()
			cfg.Decompose.Levels = levelCount
			c, err := core.Compress(field, cfg, name, 5)
			if err != nil {
				t.Fatal(err)
			}
			h := &c.Header
			levels := h.LevelInfos()
			loose, err := retrieval.ExactPlan(levels, h.Bound(), h.AbsTolerance(rels[0]), nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, bound := range []retrieval.Bound{h.Bound(), h.TheoryBound()} {
				// The loosest plan with every plane of its middle level: the
				// fresh plans of every tighter tolerance keep the loosest
				// plan's planes, but not this.
				past := slices.Clone(loose.Planes)
				past[levelCount/2] = h.Planes
				for _, held := range [][]int{make([]int, levelCount), loose.Planes, past} {
					front := referenceFrontier(levels, bound, held)
					for _, rel := range rels {
						tol := h.AbsTolerance(rel)
						got, err := retrieval.ExactPlan(levels, bound, tol, held)
						if err != nil {
							t.Fatal(err)
						}
						greedy, err := retrieval.RefinePlan(levels, held, bound, tol)
						if err != nil {
							t.Fatal(err)
						}
						want, reachable := greedy.Planes, false
						if i := slices.IndexFunc(front, func(p referencePoint) bool { return bound.C*p.sum <= tol }); i >= 0 {
							want, reachable = front[i].planes, true
						}
						ref, err := retrieval.PlanForPlanes(levels, want)
						if err != nil {
							t.Fatal(err)
						}
						kept := true
						for l, b := range held {
							kept = kept && got.Planes[l] >= b
						}
						if !kept || got.Bytes != ref.Bytes || got.EstimatedError != bound.At(want) || !reachable && !slices.Equal(got.Planes, want) ||
							reachable && !(got.EstimatedError <= tol && got.Bytes <= greedy.Bytes) {
							t.Fatalf("%s L=%d C=%g held %v rel %g: planes %v (%d B, bound %g), reference %v (%d B), greedy %v (%d B)",
								name, levelCount, bound.C, held, rel, got.Planes, got.Bytes, got.EstimatedError, want, ref.Bytes, greedy.Planes, greedy.Bytes)
						}
					}
				}
			}
		}
	}
}

// BenchmarkPlan prices one plan of a 129³ WarpX Jx header (five levels of
// 32 planes) at rel 1e-2, 1e-4 and 1e-6 in turn: MGARD's greedy, ExactPlan
// on the header's memoized bound (a fresh /refine), ExactPlan above the
// 1e-2 plan's planes (a progressive session's next step, which the fresh
// plans keep: the memoized index answers), ExactPlan above those planes
// with every plane of the middle level (which the fresh plans do not keep:
// index built per call), and ExactPlan on an unmemoized copy of the table
// (index built per call).
func BenchmarkPlan(b *testing.B) {
	field, err := warpx.DefaultConfig(129, 129, 129).Field("Jx", 0)
	if err != nil {
		b.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), "Jx", 0)
	if err != nil {
		b.Fatal(err)
	}
	h := &c.Header
	levels, bound := h.LevelInfos(), h.Bound()
	tols := []float64{h.AbsTolerance(1e-2), h.AbsTolerance(1e-4), h.AbsTolerance(1e-6)}
	held, err := retrieval.ExactPlan(levels, bound, tols[0], nil)
	if err != nil {
		b.Fatal(err)
	}
	past := slices.Clone(held.Planes)
	past[len(past)/2] = h.Planes
	for _, p := range []struct {
		name string
		plan func(tol float64) (retrieval.Plan, error)
	}{
		{"greedy", func(tol float64) (retrieval.Plan, error) { return retrieval.Greedy(levels, bound, tol) }},
		{"exact", func(tol float64) (retrieval.Plan, error) { return retrieval.ExactPlan(levels, bound, tol, nil) }},
		{"exact-held", func(tol float64) (retrieval.Plan, error) { return retrieval.ExactPlan(levels, bound, tol, held.Planes) }},
		{"exact-held-unkept", func(tol float64) (retrieval.Plan, error) { return retrieval.ExactPlan(levels, bound, tol, past) }},
		{"exact-unmemoized", func(tol float64) (retrieval.Plan, error) {
			return retrieval.ExactPlan(levels, retrieval.Bound{C: bound.C, T: bound.T}, tol, nil)
		}},
	} {
		b.Run(p.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.plan(tols[i%len(tols)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
