// Package retrieval implements the progressive retrieval planner: given the
// per-level error matrices and compressed bit-plane sizes collected at
// compression time, it decides how many bit-planes to fetch from each
// coefficient level to satisfy an error tolerance (§II-C, §III-A).
//
// The planner is the integration point for the paper's contribution. It
// stops on one bound table, Bound: C·Σ_l T[l][b_l] read at the plane
// counts. ExactPlan, which every product read path runs, spends the fewest
// stored bytes the bound allows; Greedy is MGARD's accuracy-efficiency
// walk, which the reproduction keeps as the paper ran it. The original
// theory bound (Eq. 6) and the per-level bound (Eq. 7: exact constants in
// the product, E-MGARD's learned ones in the reproduction) are its two
// constructors, Theory and PerLevel; a fixed plane assignment (D-MGARD's,
// in the reproduction) drives the same size interpreter through
// PlanForPlanes.
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

// Bound is a per-level error-bound table: at plane counts b it bounds the
// reconstruction max error by C·Σ_l T[l][b_l]. Every estimator the planner
// takes has this shape — the theory bound of Eq. 6 is C·Σ_l Err[l][b_l]
// and E-MGARD's of Eq. 7 is Σ_l C_l·Err[l][b_l] — so the planner reads a
// bound at a plane vector and never needs the error vectors behind it.
type Bound struct {
	// C scales the whole sum: the mesh constant of Eq. 6, 1 when the
	// per-level constants are already folded into T.
	C float64
	// T[l][b] is level l's term with b planes fetched (len planes+1).
	T [][]float64
	// memo, when set (Memo), holds the fresh-plan index ExactPlan builds
	// once for this table.
	memo *indexMemo
}

// Theory returns the original MGARD bound of Eq. 6: err ≤ C·Σ_l Err_l, with
// a single mesh-derived constant C applied to every level. Its rows are the
// levels' ErrMatrix slices, shared, not copied. It ignores sign
// cancellation between coefficient errors, which is exactly the
// over-pessimism the paper attacks.
func Theory(levels []LevelInfo, c float64) Bound {
	t := make([][]float64, len(levels))
	for l, li := range levels {
		t[l] = li.ErrMatrix
	}
	return Bound{C: c, T: t}
}

// PerLevel returns the E-MGARD bound of Eq. 7: err ≤ Σ_l C_l·Err_l, with
// one constant per level, as the table T[l][b] = C_l·Err[l][b] and C = 1.
// A constant count other than len(levels) yields a table the planners
// reject.
func PerLevel(levels []LevelInfo, c []float64) Bound {
	t := make([][]float64, len(c))
	for l := 0; l < len(c) && l < len(levels); l++ {
		row := make([]float64, len(levels[l].ErrMatrix))
		for b, e := range levels[l].ErrMatrix {
			row[b] = float64(c[l] * e)
		}
		t[l] = row
	}
	return Bound{C: 1, T: t}
}

// At returns the bound at per-level plane counts: C times the level terms
// summed from zero in level order. planes must fit the table's shape.
func (b Bound) At(planes []int) float64 {
	sum := 0.0
	for l, row := range b.T {
		sum += row[planes[l]]
	}
	return b.C * sum
}

// check reports whether the table has one row per level, each one entry
// longer than the level's plane count.
func (b Bound) check(levels []LevelInfo) error {
	if len(b.T) != len(levels) {
		return fmt.Errorf("retrieval: bound has %d levels, want %d", len(b.T), len(levels))
	}
	for l, li := range levels {
		if len(b.T[l]) != li.planes()+1 {
			return fmt.Errorf("retrieval: bound row %d has %d entries, want %d", l, len(b.T[l]), li.planes()+1)
		}
	}
	return nil
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
	// EstimatedError is the bound at the chosen plane counts.
	EstimatedError float64
	// BoundEvals is the planner's unit of search work: the index points
	// ExactPlan probed, or the bound reads the greedy walk made (0 for a
	// fixed assignment).
	BoundEvals int64
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
}

// lookahead is how many planes past a level's current count one greedy
// extension may add. Nega-binary prefixes overshoot before they converge:
// decoding only the top plane of a large coefficient yields a huge value,
// so Err[b] can exceed Err[0] for b up to ~3 (the partial sums of a base -2
// expansion oscillate within (2/3)·2^(E+2-b) of the target). A four-plane
// lookahead always sees past the overshoot window, so a level with real
// error left is never starved.
const lookahead = 4

// extend picks the next greedy extension from the plane counts: among
// adding 1..lookahead planes on one level, the one with the best
// error-reduction-per-byte in the level's own Err; when no extension
// reduces error, one plane on the level with the largest residual, so the
// path always progresses. ok is false when every plane is already taken.
// Every planner walks the path through this one step.
func extend(levels []LevelInfo, planes []int) (level, step int, ok bool) {
	level = -1
	bestEff := 0.0
	for l, li := range levels {
		for n := 1; n <= lookahead; n++ {
			b := planes[l] + n
			if b > li.planes() {
				continue
			}
			reduction := li.ErrMatrix[planes[l]] - li.ErrMatrix[b]
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
			if planes[l] < li.planes() && li.ErrMatrix[planes[l]] > maxErr {
				maxErr, level, step = li.ErrMatrix[planes[l]], l, 1
			}
		}
	}
	return level, step, level >= 0
}

// GreedySequence returns the complete greedy accuracy-efficiency extension
// path, from zero planes to exhaustion, independent of any tolerance or
// bound. The path is what MGARD's retriever walks; planners stop along it
// when their bound clears the tolerance, and the experiments use the full
// path to compute oracle (ideal) retrieval costs.
func GreedySequence(levels []LevelInfo) ([]Step, error) {
	for _, li := range levels {
		if err := li.validate(); err != nil {
			return nil, err
		}
	}
	planes := make([]int, len(levels))
	var bytes int64
	var steps []Step
	for {
		level, step, ok := extend(levels, planes)
		if !ok {
			return steps, nil // everything exhausted
		}
		for k := planes[level]; k < planes[level]+step; k++ {
			bytes += levels[level].PlaneSizes[k]
		}
		planes[level] += step
		steps = append(steps, Step{Level: level, Planes: append([]int(nil), planes...), Bytes: bytes})
	}
}

// RefinePlan starts from an initial plane assignment (typically a D-MGARD
// prediction) and extends it along the greedy accuracy-efficiency path
// until the bound drops to the tolerance. This realizes the paper's
// future-work combination of the two models (§IV-E): D-MGARD proposes,
// E-MGARD's learned bound verifies and corrects. It never drops a plane the
// start already holds: a learned bound is unbiased rather than
// conservative, and shrinking under it re-introduces bound violations
// (EXPERIMENTS.md, exp-hybrid). A bound whose table does not have the
// levels' shape is an error.
func RefinePlan(levels []LevelInfo, start []int, bound Bound, tol float64) (Plan, error) {
	if tol <= 0 || math.IsNaN(tol) {
		return Plan{}, fmt.Errorf("retrieval: tolerance %g must be positive", tol)
	}
	if len(start) != len(levels) {
		return Plan{}, fmt.Errorf("retrieval: start has %d levels, want %d", len(start), len(levels))
	}
	for l, li := range levels {
		if err := li.validate(); err != nil {
			return Plan{}, err
		}
		if b := start[l]; b < 0 || b > li.planes() {
			return Plan{}, fmt.Errorf("retrieval: start level %d plane count %d out of range", l, b)
		}
	}
	if err := bound.check(levels); err != nil {
		return Plan{}, err
	}
	planes := append([]int(nil), start...)
	var evals int64
	at := func() float64 {
		evals++
		return bound.At(planes)
	}
	// !(e <= tol), not e > tol: a NaN bound keeps extending.
	for !(at() <= tol) {
		level, step, ok := extend(levels, planes)
		if !ok {
			break
		}
		planes[level] += step
	}
	plan, err := PlanForPlanes(levels, planes)
	if err != nil {
		return Plan{}, err
	}
	plan.EstimatedError = at()
	plan.BoundEvals = evals
	return plan, nil
}

// Greedy chooses plane counts by MGARD's greedy accuracy-efficiency
// search: starting from zero planes everywhere, it repeatedly fetches the
// plane prefix with the best error-reduction-per-byte until the bound drops
// to the tolerance (§II-C, Fig. 5 discussion). tol must be positive. It is
// the retriever the paper ran, and the reproduction's experiments plan with
// it; the product plans with ExactPlan, which never fetches more.
func Greedy(levels []LevelInfo, bound Bound, tol float64) (Plan, error) {
	return RefinePlan(levels, make([]int, len(levels)), bound, tol)
}

// GreedyPlan is ExactPlan for a fresh session, under the name the
// benchmark's replay (benchmark/replay.go) plans with, so the replay
// re-plans each request exactly as /refine does. It is not MGARD's greedy:
// that is Greedy. It goes with the replay (ROADMAP item 3).
func GreedyPlan(levels []LevelInfo, bound Bound, tol float64) (Plan, error) {
	return ExactPlan(levels, bound, tol, nil)
}
