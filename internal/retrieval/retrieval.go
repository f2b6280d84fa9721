// Package retrieval implements the progressive retrieval planner: given the
// per-level error matrices and compressed bit-plane sizes collected at
// compression time, it decides how many bit-planes to fetch from each
// coefficient level to satisfy an error tolerance (§II-C, §III-A).
//
// The planner is the integration point for the paper's contribution: the
// error estimator is pluggable, so the original theory bound (Eq. 6), the
// E-MGARD learned per-level bound (Eq. 7), or a fixed plane assignment from
// D-MGARD can all drive the same size interpreter.
package retrieval

import (
	"fmt"
	"math"
)

// LevelInfo describes one encoded coefficient level to the planner.
type LevelInfo struct {
	// ErrMatrix[b] is the max abs coefficient error after retrieving the
	// first b planes (len = planes+1).
	ErrMatrix []float64
	// PlaneSizes[k] is the stored (compressed) size in bytes of plane k
	// (len = planes).
	PlaneSizes []int64
}

func (li LevelInfo) planes() int { return len(li.PlaneSizes) }

func (li LevelInfo) validate() error {
	if len(li.ErrMatrix) != len(li.PlaneSizes)+1 {
		return fmt.Errorf("retrieval: ErrMatrix length %d does not match %d planes",
			len(li.ErrMatrix), len(li.PlaneSizes))
	}
	for k, s := range li.PlaneSizes {
		if s < 0 {
			return fmt.Errorf("retrieval: negative plane size at plane %d", k)
		}
	}
	return nil
}

// ErrorEstimator maps the per-level truncation errors Err[l][b_l] to an
// estimate of (an upper bound on) the reconstruction max error.
type ErrorEstimator interface {
	// Estimate returns the estimated max reconstruction error when level l
	// is truncated with max coefficient error levelErrs[l].
	Estimate(levelErrs []float64) float64
}

// TheoryEstimator is the original MGARD bound of Eq. 6: err ≤ C·Σ_l Err_l,
// with a single mesh-derived constant C applied to every level. It ignores
// sign cancellation between coefficient errors, which is exactly the
// over-pessimism the paper attacks.
type TheoryEstimator struct {
	// C is the mesh-derived mapping constant.
	C float64
}

// Estimate implements ErrorEstimator.
func (t TheoryEstimator) Estimate(levelErrs []float64) float64 {
	sum := 0.0
	for _, e := range levelErrs {
		sum += e
	}
	return t.C * sum
}

// PerLevelEstimator is the E-MGARD bound of Eq. 7: err ≤ Σ_l C_l·Err_l with
// a learned constant per level.
type PerLevelEstimator struct {
	// C[l] is the learned mapping constant for level l.
	C []float64
}

// Estimate implements ErrorEstimator.
func (p PerLevelEstimator) Estimate(levelErrs []float64) float64 {
	if len(levelErrs) != len(p.C) {
		panic(fmt.Sprintf("retrieval: estimator has %d constants, got %d levels", len(p.C), len(levelErrs)))
	}
	sum := 0.0
	for l, e := range levelErrs {
		sum += float64(p.C[l] * e)
	}
	return sum
}

// Plan is a retrieval decision: how many planes to fetch per level and what
// it costs.
type Plan struct {
	// Planes[l] is b_l, the number of bit-planes to retrieve from level l.
	Planes []int
	// BytesPerLevel[l] is the retrieval size contributed by level l.
	BytesPerLevel []int64
	// Bytes is the total retrieval size D of Eq. 1.
	Bytes int64
	// EstimatedError is the estimator's bound at the chosen plane counts.
	EstimatedError float64
}

// PlanForPlanes runs the size interpreter for a fixed plane assignment —
// the D-MGARD path, where a model predicts b_l directly.
func PlanForPlanes(levels []LevelInfo, planes []int) (Plan, error) {
	if len(planes) != len(levels) {
		return Plan{}, fmt.Errorf("retrieval: %d plane counts for %d levels", len(planes), len(levels))
	}
	p := Plan{
		Planes:        append([]int(nil), planes...),
		BytesPerLevel: make([]int64, len(levels)),
	}
	for l, li := range levels {
		if err := li.validate(); err != nil {
			return Plan{}, err
		}
		b := planes[l]
		if b < 0 || b > li.planes() {
			return Plan{}, fmt.Errorf("retrieval: level %d plane count %d out of range [0,%d]", l, b, li.planes())
		}
		for k := 0; k < b; k++ {
			p.BytesPerLevel[l] += li.PlaneSizes[k]
		}
		p.Bytes += p.BytesPerLevel[l]
	}
	return p, nil
}

// Step is one extension of the greedy search path: the state after
// fetching one more plane prefix.
type Step struct {
	// Level is the level that was extended.
	Level int
	// Planes is the per-level plane-count snapshot after the extension.
	Planes []int
	// Bytes is the cumulative retrieval size after the extension.
	Bytes int64
	// LevelErrs[l] is Err[l][b_l] after the extension.
	LevelErrs []float64
}

// lookahead is how many planes past a level's current count one greedy
// extension may add. Nega-binary prefixes overshoot before they converge:
// decoding only the top plane of a large coefficient yields a huge value,
// so Err[b] can exceed Err[0] for b up to ~3 (the partial sums of a base -2
// expansion oscillate within (2/3)·2^(E+2-b) of the target). A four-plane
// lookahead always sees past the overshoot window, so a level with real
// error left is never starved.
const lookahead = 4

// extend picks the next greedy extension from the state (planes, errs):
// among adding 1..lookahead planes on one level, the one with the best
// error-reduction-per-byte; when no extension reduces error, one plane on
// the level with the largest residual, so the path always progresses. ok is
// false when every plane is already taken. Every planner walks the path
// through this one step.
func extend(levels []LevelInfo, planes []int, errs []float64) (level, step int, ok bool) {
	level = -1
	bestEff := 0.0
	for l, li := range levels {
		for n := 1; n <= lookahead; n++ {
			b := planes[l] + n
			if b > li.planes() {
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
			if planes[l] < li.planes() && errs[l] > maxErr {
				maxErr, level, step = errs[l], l, 1
			}
		}
	}
	return level, step, level >= 0
}

// GreedySequence returns the complete greedy accuracy-efficiency extension
// path, from zero planes to exhaustion, independent of any tolerance or
// estimator. The path is what MGARD's retriever walks; planners stop along
// it when their error estimate clears the tolerance, and the experiments
// use the full path to compute oracle (ideal) retrieval costs.
func GreedySequence(levels []LevelInfo) ([]Step, error) {
	L := len(levels)
	for _, li := range levels {
		if err := li.validate(); err != nil {
			return nil, err
		}
	}
	planes := make([]int, L)
	errs := make([]float64, L)
	var bytes int64
	for l, li := range levels {
		errs[l] = li.ErrMatrix[0]
	}
	var steps []Step
	for {
		level, step, ok := extend(levels, planes, errs)
		if !ok {
			return steps, nil // everything exhausted
		}
		for k := planes[level]; k < planes[level]+step; k++ {
			bytes += levels[level].PlaneSizes[k]
		}
		planes[level] += step
		errs[level] = levels[level].ErrMatrix[planes[level]]
		steps = append(steps, Step{
			Level:     level,
			Planes:    append([]int(nil), planes...),
			Bytes:     bytes,
			LevelErrs: append([]float64(nil), errs...),
		})
	}
}

// RefinePlan starts from an initial plane assignment (typically a D-MGARD
// prediction) and extends it along the greedy accuracy-efficiency path
// until the estimator's bound drops to the tolerance. This realizes the
// paper's future-work combination of the two models (§IV-E): D-MGARD
// proposes, E-MGARD's learned estimator verifies and corrects. It never
// drops a plane the start already holds: a learned estimator is unbiased
// rather than conservative, and shrinking under it re-introduces bound
// violations (EXPERIMENTS.md, exp-hybrid).
func RefinePlan(levels []LevelInfo, start []int, est ErrorEstimator, tol float64) (Plan, error) {
	if tol <= 0 || math.IsNaN(tol) {
		return Plan{}, fmt.Errorf("retrieval: tolerance %g must be positive", tol)
	}
	if len(start) != len(levels) {
		return Plan{}, fmt.Errorf("retrieval: start has %d levels, want %d", len(start), len(levels))
	}
	planes := make([]int, len(levels))
	errs := make([]float64, len(levels))
	for l, li := range levels {
		if err := li.validate(); err != nil {
			return Plan{}, err
		}
		b := start[l]
		if b < 0 || b > li.planes() {
			return Plan{}, fmt.Errorf("retrieval: start level %d plane count %d out of range", l, b)
		}
		planes[l] = b
		errs[l] = li.ErrMatrix[b]
	}
	// !(e <= tol), not e > tol: a NaN estimate keeps extending.
	for !(est.Estimate(errs) <= tol) {
		level, step, ok := extend(levels, planes, errs)
		if !ok {
			break
		}
		planes[level] += step
		errs[level] = levels[level].ErrMatrix[planes[level]]
	}
	plan, err := PlanForPlanes(levels, planes)
	if err != nil {
		return Plan{}, err
	}
	plan.EstimatedError = est.Estimate(errs)
	return plan, nil
}

// GreedyPlan chooses plane counts by MGARD's greedy accuracy-efficiency
// search: starting from zero planes everywhere, it repeatedly fetches the
// plane prefix with the best error-reduction-per-byte until the estimator's
// bound drops to the tolerance (§II-C, Fig. 5 discussion). tol must be
// positive.
func GreedyPlan(levels []LevelInfo, est ErrorEstimator, tol float64) (Plan, error) {
	return RefinePlan(levels, make([]int, len(levels)), est, tol)
}
