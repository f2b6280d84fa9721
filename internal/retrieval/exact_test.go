package retrieval

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// instance draws a small planning problem from next, which returns a
// number in [0, n): 2–4 levels of 1–8 planes, plane sizes with zeros and
// ties, Err rows over a wide or a narrow span of values that mostly fall but overshoot (nega-binary prefixes) and
// may keep a residual, a theory or per-level bound, a tolerance on, near,
// far below or far above the bound of some plan, and held planes or none.
// Every value is a small dyadic rational, so every bound sum is exact and
// the brute force and the planner agree on ties bit for bit.
func instance(next func(n int) int) (levels []LevelInfo, bound Bound, tol float64, held []int) {
	levels = make([]LevelInfo, 2+next(3))
	span := []int{6, 120}[next(2)] // a narrow span makes bound ties common
	for l := range levels {
		planes := 1 + next(8)
		li := LevelInfo{ErrMatrix: make([]float64, planes+1), PlaneSizes: make([]int64, planes)}
		e := float64(1 + next(span))
		for b := range li.ErrMatrix {
			li.ErrMatrix[b] = e / 8
			switch next(6) {
			case 0: // overshoot
				e += float64(next(span/3 + 1))
			case 1: // flat
			default:
				e = float64(next(int(e) + 1))
			}
		}
		if next(4) == 0 {
			li.ErrMatrix[planes] = 0
		}
		for k := range li.PlaneSizes {
			li.PlaneSizes[k] = int64(next(3) * next(5)) // zeros and ties
		}
		levels[l] = li
	}
	cs := []float64{0.5, 1, 2, 7}
	if next(2) == 0 {
		bound = Theory(levels, cs[next(len(cs))])
	} else {
		per := make([]float64, len(levels))
		for l := range per {
			per[l] = cs[next(len(cs))]
		}
		bound = PerLevel(levels, per)
	}
	at := make([]int, len(levels))
	for l, li := range levels {
		at[l] = next(li.planes() + 1)
	}
	switch tol = bound.At(at); next(5) {
	case 0:
		tol *= 1 + 1.0/64
	case 1:
		tol *= 1 - 1.0/64
	case 2:
		tol = 1.0 / 1024 // below most residuals: often unreachable
	case 3:
		tol = 1e6
	}
	if tol <= 0 {
		tol = 1.0 / 1024
	}
	if next(3) == 0 {
		held = make([]int, len(levels))
		for l, li := range levels {
			held[l] = next(li.planes() + 1)
		}
	}
	return levels, bound, tol, held
}

// bruteForce is the definition ExactPlan meets: over every plane vector
// above held, the fewest bytes with At ≤ tol, then the smallest bound;
// reachable is false when none clears.
func bruteForce(levels []LevelInfo, bound Bound, tol float64, held []int) (bestBytes int64, bestEst float64, reachable bool) {
	lo := make([]int, len(levels))
	if held != nil {
		copy(lo, held)
	}
	v := slices.Clone(lo)
	for {
		p, _ := PlanForPlanes(levels, v)
		if est := bound.At(v); est <= tol {
			if !reachable || p.Bytes < bestBytes || p.Bytes == bestBytes && est < bestEst {
				bestBytes, bestEst, reachable = p.Bytes, est, true
			}
		}
		l := len(v) - 1
		for ; l >= 0 && v[l] == levels[l].planes(); l-- {
			v[l] = lo[l]
		}
		if l < 0 {
			break
		}
		v[l]++
	}
	return bestBytes, bestEst, reachable
}

// checkExact asserts ExactPlan against the brute force on one instance:
// a plan that keeps the held planes, with its bound read by At; when
// reachable, the brute force's bytes and bound, ≤ tol, and never more bytes
// than MGARD's greedy from the same held planes; when unreachable, where
// the greedy walk ends.
func checkExact(t *testing.T, levels []LevelInfo, bound Bound, tol float64, held []int) {
	t.Helper()
	got, err := ExactPlan(levels, bound, tol, held)
	if err != nil {
		t.Fatal(err)
	}
	start := held
	if start == nil {
		start = make([]int, len(levels))
	}
	greedy, err := RefinePlan(levels, start, bound, tol)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, wantEst, reachable := bruteForce(levels, bound, tol, held)
	if !keeps(got.Planes, start) || got.EstimatedError != bound.At(got.Planes) ||
		reachable && (got.Bytes != wantBytes || got.EstimatedError != wantEst) ||
		!reachable && !slices.Equal(got.Planes, greedy.Planes) {
		t.Fatalf("levels %+v bound %+v tol %g held %v: planes %v (%d B, bound %g), want %d B bound %g (reachable %v), greedy %v",
			levels, bound, tol, held, got.Planes, got.Bytes, got.EstimatedError, wantBytes, wantEst, reachable, greedy.Planes)
	}
	if reachable && (!(got.EstimatedError <= tol) || got.Bytes > greedy.Bytes) {
		t.Fatalf("tol %g held %v: exact %v %d bytes bound %g, greedy %v %d bytes", tol, held, got.Planes, got.Bytes, got.EstimatedError, greedy.Planes, greedy.Bytes)
	}
}

// TestExactPlanMatchesBruteForce checks ExactPlan against every plane
// vector on random small level sets, memoized or not.
func TestExactPlanMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 3000; trial++ {
		levels, bound, tol, held := instance(rng.Intn)
		if trial%2 == 1 {
			bound = bound.Memo()
		}
		checkExact(t, levels, bound, tol, held)
	}
}

// FuzzExactPlan is TestExactPlanMatchesBruteForce on instances drawn from
// the fuzzer's bytes.
func FuzzExactPlan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x01\x05\x40\x00\x02\x00\x03\x01\x04\x00\x00\x02\x07\x10\x01\x02\x03\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		levels, bound, tol, held := instance(next)
		checkExact(t, levels, bound, tol, held)
	})
}

// TestExactPlanCases pins the behaviours the property test draws at
// random: an overshooting Err row is planned past, free planes are taken
// when they lower the bound, held planes cost nothing, and an unreachable
// tolerance takes every plane that lowers an error.
func TestExactPlanCases(t *testing.T) {
	overshoot := LevelInfo{ErrMatrix: []float64{10, 12, 1, 0.5, 0}, PlaneSizes: []int64{8, 8, 8, 8}}
	free := LevelInfo{ErrMatrix: []float64{4, 2, 1}, PlaneSizes: []int64{0, 16}}
	for _, c := range []struct {
		name   string
		levels []LevelInfo
		tol    float64
		held   []int
		want   []int
	}{
		{"overshoot", []LevelInfo{overshoot}, 6, nil, []int{2}},
		{"free plane", []LevelInfo{free}, 3, nil, []int{1}},
		{"free plane lowers the bound", []LevelInfo{free}, 5, nil, []int{1}},
		{"held planes are kept", []LevelInfo{overshoot, free}, 100, []int{3, 0}, []int{3, 1}},
		{"held planes cost nothing", []LevelInfo{overshoot, free}, 2, []int{0, 2}, []int{2, 2}},
		{"unreachable", []LevelInfo{overshoot, free}, 0.5, nil, []int{4, 2}},
		{"unreachable past a zero error", []LevelInfo{overshoot, {ErrMatrix: []float64{0, 0, 0}, PlaneSizes: []int64{1, 1}}}, 1e-9, nil, []int{4, 0}},
	} {
		got, err := ExactPlan(c.levels, Theory(c.levels, 1), c.tol, c.held)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Planes, c.want) {
			t.Errorf("%s: planes %v, want %v", c.name, got.Planes, c.want)
		}
	}
}

func TestExactPlanValidation(t *testing.T) {
	levels := []LevelInfo{{ErrMatrix: []float64{1, 0}, PlaneSizes: []int64{4}}}
	theory := Theory(levels, 1)
	for name, call := range map[string]func() (Plan, error){
		"zero tolerance": func() (Plan, error) { return ExactPlan(levels, theory, 0, nil) },
		"NaN tolerance":  func() (Plan, error) { return ExactPlan(levels, theory, math.NaN(), nil) },
		"held length":    func() (Plan, error) { return ExactPlan(levels, theory, 1, []int{0, 0}) },
		"held range":     func() (Plan, error) { return ExactPlan(levels, theory, 1, []int{2}) },
		"bound shape":    func() (Plan, error) { return ExactPlan(levels, Theory(nil, 1), 1, nil) },
		"negative C":     func() (Plan, error) { return ExactPlan(levels, Theory(levels, -1), 1, nil) },
		"infinite C":     func() (Plan, error) { return ExactPlan(levels, Theory(levels, math.Inf(1)), 1, nil) },
		"inconsistent row": func() (Plan, error) {
			return ExactPlan([]LevelInfo{{ErrMatrix: []float64{1}, PlaneSizes: []int64{4}}}, theory, 1, nil)
		},
	} {
		if _, err := call(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestExactPlanMemo checks that a memoized bound builds its index once,
// that copies share it, that a copy whose constant was replaced does not
// read it, and that GreedyPlan is the fresh ExactPlan.
func TestExactPlanMemo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	levels := []LevelInfo{
		syntheticLevel(t, rng, 16, 50, 24),
		syntheticLevel(t, rng, 128, 5, 24),
		syntheticLevel(t, rng, 1024, 1, 24),
	}
	b := PerLevel(levels, []float64{1, 7, 7}).Memo()
	copied := b
	if _, err := ExactPlan(levels, copied, 0.1, nil); err != nil {
		t.Fatal(err)
	}
	ix := b.memo.ix
	if ix == nil || !ix.over(levels, b) {
		t.Fatal("a fresh plan of a copy did not fill the memo")
	}
	for _, tol := range []float64{1, 0.01, 1e-4} {
		got, err := ExactPlan(levels, b, tol, make([]int, len(levels)))
		if err != nil {
			t.Fatal(err)
		}
		alias, err := GreedyPlan(levels, b, tol)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := ExactPlan(levels, Bound{C: b.C, T: b.T}, tol, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Planes, fresh.Planes) || !slices.Equal(alias.Planes, fresh.Planes) || b.memo.ix != ix {
			t.Fatalf("tol %g: memoized %v, GreedyPlan %v, unmemoized %v", tol, got.Planes, alias.Planes, fresh.Planes)
		}
	}
	scaled := b
	scaled.C = 100
	if ix.over(levels, scaled) {
		t.Fatal("the index claims a bound with another constant")
	}
	got, err := ExactPlan(levels, scaled, 0.1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.EstimatedError > 0.1 {
		t.Fatalf("a copy with a new constant planned on the stale index: bound %g", got.EstimatedError)
	}
}
