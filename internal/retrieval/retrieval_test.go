package retrieval

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pmgard/internal/bitplane"
)

// syntheticLevel builds a LevelInfo from random coefficients via the real
// bit-plane encoder so the error matrices have realistic shapes.
func syntheticLevel(t *testing.T, rng *rand.Rand, n int, scale float64, planes int) LevelInfo {
	t.Helper()
	coeffs := make([]float64, n)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64() * scale
	}
	enc, err := bitplane.EncodeLevel(coeffs, planes, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, planes)
	for k := range sizes {
		sizes[k] = int64(enc.PlaneSizeRaw())
	}
	return LevelInfo{ErrMatrix: enc.ErrMatrix, PlaneSizes: sizes}
}

func TestTheoryEstimator(t *testing.T) {
	levels := []LevelInfo{
		{ErrMatrix: []float64{1, 0.5}, PlaneSizes: []int64{1}},
		{ErrMatrix: []float64{2, 1}, PlaneSizes: []int64{1}},
		{ErrMatrix: []float64{3, 0}, PlaneSizes: []int64{1}},
	}
	b := Theory(levels, 2)
	if got := b.At([]int{0, 0, 0}); got != 12 {
		t.Fatalf("At(0,0,0) = %v, want 12", got)
	}
	if got := b.At([]int{1, 1, 0}); got != 9 {
		t.Fatalf("At(1,1,0) = %v, want 9", got)
	}
	// The table's rows are the levels' error matrices, not copies.
	if &b.T[1][0] != &levels[1].ErrMatrix[0] {
		t.Fatal("theory bound copied an error matrix")
	}
}

func TestPerLevelEstimator(t *testing.T) {
	levels := []LevelInfo{
		{ErrMatrix: []float64{2, 1}, PlaneSizes: []int64{1}},
		{ErrMatrix: []float64{4, 2}, PlaneSizes: []int64{1}},
		{ErrMatrix: []float64{1, 0}, PlaneSizes: []int64{1}},
	}
	b := PerLevel(levels, []float64{1, 0.5, 2})
	if b.C != 1 {
		t.Fatalf("C = %v, want 1 with the constants folded into the table", b.C)
	}
	if got := b.At([]int{0, 0, 0}); got != 6 {
		t.Fatalf("At(0,0,0) = %v, want 6", got)
	}
	if got := b.At([]int{1, 1, 1}); got != 2 {
		t.Fatalf("At(1,1,1) = %v, want 2", got)
	}
	// A constant count that disagrees with the levels is rejected by the
	// planner, not a panic.
	for _, cs := range [][]float64{{1}, {1, 1, 1, 1}} {
		if _, err := GreedyPlan(levels, PerLevel(levels, cs), 1); err == nil {
			t.Fatalf("%d constants for %d levels accepted", len(cs), len(levels))
		}
	}
}

func TestPlanForPlanesSizes(t *testing.T) {
	levels := []LevelInfo{
		{ErrMatrix: []float64{4, 2, 1}, PlaneSizes: []int64{10, 20}},
		{ErrMatrix: []float64{8, 4, 2}, PlaneSizes: []int64{30, 40}},
	}
	p, err := PlanForPlanes(levels, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if p.BytesPerLevel[0] != 10 || p.BytesPerLevel[1] != 70 {
		t.Fatalf("BytesPerLevel = %v", p.BytesPerLevel)
	}
	if p.Bytes != 80 {
		t.Fatalf("Bytes = %d, want 80", p.Bytes)
	}
}

func TestPlanForPlanesValidation(t *testing.T) {
	levels := []LevelInfo{{ErrMatrix: []float64{1, 0}, PlaneSizes: []int64{5}}}
	if _, err := PlanForPlanes(levels, []int{2}); err == nil {
		t.Fatal("out-of-range plane count accepted")
	}
	if _, err := PlanForPlanes(levels, []int{-1}); err == nil {
		t.Fatal("negative plane count accepted")
	}
	if _, err := PlanForPlanes(levels, []int{0, 0}); err == nil {
		t.Fatal("mismatched plane slice accepted")
	}
	bad := []LevelInfo{{ErrMatrix: []float64{1}, PlaneSizes: []int64{5}}}
	if _, err := PlanForPlanes(bad, []int{0}); err == nil {
		t.Fatal("inconsistent LevelInfo accepted")
	}
}

func TestGreedyPlanReachesTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 8, 100, 32),
		syntheticLevel(t, rng, 64, 10, 32),
		syntheticLevel(t, rng, 512, 1, 32),
	}
	est := Theory(levels, 1.5)
	for _, tol := range []float64{100, 1, 1e-3, 1e-6} {
		p, err := GreedyPlan(levels, est, tol)
		if err != nil {
			t.Fatal(err)
		}
		if p.EstimatedError > tol {
			// Only acceptable if every plane was exhausted.
			for l, li := range levels {
				if p.Planes[l] < li.planes() {
					t.Fatalf("tol %g: estimate %g above tolerance with planes remaining", tol, p.EstimatedError)
				}
			}
		}
	}
}

func TestGreedyPlanMonotoneInTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 16, 50, 24),
		syntheticLevel(t, rng, 128, 5, 24),
	}
	est := Theory(levels, 2)
	prevBytes := int64(-1)
	for _, tol := range []float64{10, 1, 0.1, 0.01, 0.001} {
		p, err := GreedyPlan(levels, est, tol)
		if err != nil {
			t.Fatal(err)
		}
		if p.Bytes < prevBytes {
			t.Fatalf("tighter tolerance %g fetched fewer bytes (%d < %d)", tol, p.Bytes, prevBytes)
		}
		prevBytes = p.Bytes
	}
}

func TestGreedyPlanLooseToleranceReadsNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	levels := []LevelInfo{syntheticLevel(t, rng, 32, 1, 16)}
	// Tolerance above C·Err[0] requires no planes at all.
	tol := 1.5*levels[0].ErrMatrix[0] + 1
	p, err := GreedyPlan(levels, Theory(levels, 1.5), tol)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bytes != 0 || p.Planes[0] != 0 {
		t.Fatalf("loose tolerance fetched %d bytes, %v planes", p.Bytes, p.Planes)
	}
}

func TestGreedyPlanRejectsBadTolerance(t *testing.T) {
	levels := []LevelInfo{{ErrMatrix: []float64{1, 0}, PlaneSizes: []int64{1}}}
	for _, tol := range []float64{0, -1, math.NaN()} {
		if _, err := GreedyPlan(levels, Theory(levels, 1), tol); err == nil {
			t.Fatalf("tolerance %v accepted", tol)
		}
	}
}

func TestGreedyPrefersCheapEfficientLevels(t *testing.T) {
	// Coarse level: huge error, tiny planes. Fine level: small error, huge
	// planes. Greedy must drain the coarse level first (Fig. 5b behaviour).
	coarse := LevelInfo{
		ErrMatrix:  []float64{100, 10, 1, 0.1, 0.01},
		PlaneSizes: []int64{4, 4, 4, 4},
	}
	fine := LevelInfo{
		ErrMatrix:  []float64{1, 0.1, 0.01, 0.001, 0.0001},
		PlaneSizes: []int64{4096, 4096, 4096, 4096},
	}
	levels := []LevelInfo{coarse, fine}
	p, err := GreedyPlan(levels, Theory(levels, 1), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p.Planes[0] < 3 {
		t.Fatalf("coarse level got %d planes, want ≥3 before touching fine level", p.Planes[0])
	}
	if p.Planes[1] > 1 {
		t.Fatalf("fine level got %d planes, want ≤1", p.Planes[1])
	}
}

func TestGreedyHandlesNonMonotoneErrMatrix(t *testing.T) {
	// A plane whose retrieval *increases* the max error (possible with
	// nega-binary prefixes) must not wedge the loop.
	level := LevelInfo{
		ErrMatrix:  []float64{10, 12, 1, 0.5, 0},
		PlaneSizes: []int64{8, 8, 8, 8},
	}
	p, err := GreedyPlan([]LevelInfo{level}, Theory([]LevelInfo{level}, 1), 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstimatedError > 0.6 {
		t.Fatalf("estimate %g above tolerance", p.EstimatedError)
	}
	if p.Planes[0] < 3 {
		t.Fatalf("planes = %v, want ≥3 to pass the non-monotone step", p.Planes)
	}
}

func TestGreedyExhaustsPlanesWhenToleranceUnreachable(t *testing.T) {
	level := LevelInfo{
		ErrMatrix:  []float64{10, 5, 2}, // residual error 2 > tol
		PlaneSizes: []int64{8, 8},
	}
	p, err := GreedyPlan([]LevelInfo{level}, Theory([]LevelInfo{level}, 1), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Planes[0] != 2 {
		t.Fatalf("planes = %v, want all 2 retrieved", p.Planes)
	}
	if p.EstimatedError != 2 {
		t.Fatalf("EstimatedError = %g, want residual 2", p.EstimatedError)
	}
}

func TestPerLevelEstimatorNeedsFewerBytesThanTheory(t *testing.T) {
	// With tight per-level constants the same tolerance should be met with
	// no more bytes than the pessimistic single-constant bound — the core
	// mechanism behind E-MGARD's savings.
	rng := rand.New(rand.NewSource(4))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 8, 100, 32),
		syntheticLevel(t, rng, 64, 20, 32),
		syntheticLevel(t, rng, 512, 4, 32),
	}
	theory := Theory(levels, 3.375)
	learned := PerLevel(levels, []float64{1.0, 0.8, 0.6})
	for _, tol := range []float64{1, 0.01, 1e-4} {
		pt, err := GreedyPlan(levels, theory, tol)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := GreedyPlan(levels, learned, tol)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Bytes > pt.Bytes {
			t.Fatalf("tol %g: learned bound fetched %d bytes > theory %d", tol, pl.Bytes, pt.Bytes)
		}
	}
}

func TestGreedyZeroSizePlanesInfiniteEfficiency(t *testing.T) {
	// Zero-byte planes (fully compressed-away) are free and must be taken
	// eagerly without dividing by zero.
	level := LevelInfo{
		ErrMatrix:  []float64{4, 2, 1},
		PlaneSizes: []int64{0, 16},
	}
	p, err := GreedyPlan([]LevelInfo{level}, Theory([]LevelInfo{level}, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Planes[0] != 1 || p.Bytes != 0 {
		t.Fatalf("plan = %+v, want the free plane only", p)
	}
}

func TestGreedySequenceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 8, 100, 16),
		syntheticLevel(t, rng, 64, 10, 16),
	}
	steps, err := GreedySequence(levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) == 0 {
		t.Fatal("empty greedy sequence")
	}
	// Bytes are non-decreasing; plane counts only grow; the last step has
	// every plane retrieved.
	prevBytes := int64(-1)
	prevPlanes := []int{0, 0}
	for i, s := range steps {
		if s.Bytes < prevBytes {
			t.Fatalf("step %d: bytes decreased", i)
		}
		for l := range s.Planes {
			if s.Planes[l] < prevPlanes[l] {
				t.Fatalf("step %d: level %d plane count decreased", i, l)
			}
		}
		prevBytes, prevPlanes = s.Bytes, s.Planes
	}
	last := steps[len(steps)-1]
	for l, li := range levels {
		if last.Planes[l] != len(li.PlaneSizes) {
			t.Fatalf("sequence ended with level %d at %d planes, want %d",
				l, last.Planes[l], len(li.PlaneSizes))
		}
	}
}

func TestGreedyPlanConsistentWithSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 16, 50, 24),
		syntheticLevel(t, rng, 128, 5, 24),
	}
	est := Theory(levels, 2)
	steps, err := GreedySequence(levels)
	if err != nil {
		t.Fatal(err)
	}
	tol := 0.01
	plan, err := GreedyPlan(levels, est, tol)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must be a prefix point of the sequence: find it.
	found := plan.Bytes == 0
	for _, s := range steps {
		if s.Bytes == plan.Bytes {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("plan bytes %d not on the greedy path", plan.Bytes)
	}
}

func TestRefinePlanExtendsToTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 16, 100, 24),
		syntheticLevel(t, rng, 128, 10, 24),
	}
	est := Theory(levels, 2)
	// Start far below what the tolerance needs.
	p, err := RefinePlan(levels, []int{1, 1}, est, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if p.EstimatedError > 0.01 {
		t.Fatalf("estimate %g above tolerance after refine", p.EstimatedError)
	}
}

func TestRefinePlanValidation(t *testing.T) {
	levels := []LevelInfo{{ErrMatrix: []float64{1, 0}, PlaneSizes: []int64{4}}}
	if _, err := RefinePlan(levels, []int{0, 0}, Theory(levels, 1), 1); err == nil {
		t.Fatal("mismatched start accepted")
	}
	if _, err := RefinePlan(levels, []int{5}, Theory(levels, 1), 1); err == nil {
		t.Fatal("out-of-range start accepted")
	}
	if _, err := RefinePlan(levels, []int{0}, Theory(levels, 1), -1); err == nil {
		t.Fatal("negative tolerance accepted")
	}
}

func TestRefinePlanIdempotentAtOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 16, 100, 24),
		syntheticLevel(t, rng, 128, 10, 24),
	}
	est := Theory(levels, 2)
	g, err := GreedyPlan(levels, est, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RefinePlan(levels, g.Planes, est, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Refining an already-good plan must not blow the cost up.
	if p.Bytes > g.Bytes {
		t.Fatalf("refine inflated the plan: %d > %d", p.Bytes, g.Bytes)
	}
	if p.EstimatedError > 0.05 {
		t.Fatalf("refine broke the tolerance: %g", p.EstimatedError)
	}
}

// TestGreedyPlanIsRefineFromZero pins the merge of the two planners onto
// one extension step: over random level counts, plane counts, error
// matrices (non-monotone prefixes included) and both estimator kinds, the
// plan refined from zero planes is plane for plane the one read off the
// full greedy path at the first step whose estimate clears the tolerance —
// how GreedyPlan was defined before it became RefinePlan from zeros.
func TestGreedyPlanIsRefineFromZero(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		levels := make([]LevelInfo, 1+rng.Intn(5))
		weights := make([]float64, len(levels))
		for l := range levels {
			levels[l] = syntheticLevel(t, rng, 8<<rng.Intn(6), math.Pow(10, float64(rng.Intn(5)-2)), 1+rng.Intn(32))
			// Dent the matrix and vary the sizes (free planes included) so
			// the lookahead, the efficiency order and the fallback all run.
			for k := 0; k < 3; k++ {
				i := rng.Intn(len(levels[l].ErrMatrix))
				levels[l].ErrMatrix[i] *= 0.5 + 2*rng.Float64()
			}
			for k := range levels[l].PlaneSizes {
				levels[l].PlaneSizes[k] = int64(rng.Intn(4096))
			}
			weights[l] = 0.5 + rng.Float64()
		}
		est := Theory(levels, 1+4*rng.Float64())
		if trial%2 == 1 {
			est = PerLevel(levels, weights)
		}
		tol := levels[0].ErrMatrix[0] * math.Pow(10, -6*rng.Float64())

		steps, err := GreedySequence(levels)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]int, len(levels))
		for _, s := range steps {
			if est.At(want) <= tol {
				break
			}
			want = s.Planes
		}
		for name, plan := range map[string]func() (Plan, error){
			"RefinePlan from zeros": func() (Plan, error) { return RefinePlan(levels, make([]int, len(levels)), est, tol) },
			"GreedyPlan":            func() (Plan, error) { return GreedyPlan(levels, est, tol) },
		} {
			got, err := plan()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Planes, want) || got.EstimatedError != est.At(want) {
				t.Fatalf("trial %d: %s = %v (est %g), the greedy path stops at %v (est %g)",
					trial, name, got.Planes, got.EstimatedError, want, est.At(want))
			}
		}
	}
}
