package decompose

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/grid"
)

func randomTensor(rng *rand.Rand, dims ...int) *grid.Tensor {
	t := grid.New(dims...)
	for i := range t.Data() {
		t.Data()[i] = rng.NormFloat64() * 10
	}
	return t
}

// recomposeUpTo is the coarse path a request takes: levels 0..upTo's
// streams placed on a full grid whose other nodes hold NaN — RecomposeInto
// must never read them — and recomposed in place.
func recomposeUpTo(d *Decomposition, upTo int) (*grid.Tensor, error) {
	work := grid.New(d.Dims()...)
	for i := range work.Data() {
		work.Data()[i] = math.NaN()
	}
	for l := 0; l <= upTo; l++ {
		d.Plan().Inject(work.Data(), l, d.Coeffs(l))
	}
	return d.RecomposeInto(upTo, work)
}

func TestOptionsValidate(t *testing.T) {
	bad := []codec.Options{
		{Levels: 0},
		{Levels: 31},
		{Levels: 3, Update: true, UpdateWeight: -0.1},
		{Levels: 3, Update: true, UpdateWeight: 0.6},
	}
	for _, o := range bad {
		if err := Validate(o); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", o)
		}
	}
	if err := Validate(DefaultOptions()); err != nil {
		t.Errorf("DefaultOptions invalid: %v", err)
	}
}

func TestRoundTripExact1D(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 5, 9, 17, 16, 20, 33} {
		orig := randomTensor(rng, n)
		for _, opt := range []codec.Options{
			{Levels: 3},
			{Levels: 3, Update: true, UpdateWeight: 0.25},
			{Levels: 5, Update: true, UpdateWeight: 0.25},
		} {
			d, err := Decompose(orig, opt, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := d.Recompose()
			if diff := grid.MaxAbsDiff(orig, rec); diff > 1e-11 {
				t.Errorf("n=%d opt=%+v round trip error %g", n, opt, diff)
			}
		}
	}
}

func TestRoundTripExact2D3D(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := [][]int{{9, 9}, {17, 5}, {8, 12}, {9, 9, 9}, {7, 11, 5}, {16, 16, 16}}
	opt := DefaultOptions()
	for _, dims := range cases {
		orig := randomTensor(rng, dims...)
		d, err := Decompose(orig, opt, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := d.Recompose()
		if diff := grid.MaxAbsDiff(orig, rec); diff > 1e-10 {
			t.Errorf("dims=%v round trip error %g", dims, diff)
		}
	}
}

func TestDecomposeDoesNotModifyInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := randomTensor(rng, 9, 9)
	before := orig.Clone()
	if _, err := Decompose(orig, DefaultOptions(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if grid.MaxAbsDiff(orig, before) != 0 {
		t.Fatal("Decompose modified its input")
	}
}

func TestLinearFieldHasZeroDetails(t *testing.T) {
	// The predict step interpolates linearly, so a linear field produces
	// (near-)zero detail coefficients on every non-coarse level.
	n := 17
	f := grid.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			f.Set(3*float64(i)-2*float64(j)+1, i, j)
		}
	}
	d, err := Decompose(f, codec.Options{Levels: 4}, 1, nil) // predict-only
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l < d.Levels(); l++ {
		for i, c := range d.Coeffs(l) {
			if math.Abs(c) > 1e-10 {
				t.Fatalf("level %d coeff %d = %g, want ~0 for linear field", l, i, c)
			}
		}
	}
}

func TestSmoothFieldCoefficientDecay(t *testing.T) {
	// For a smooth field, max |coefficient| should be much larger on the
	// coarse level than on the finest detail level.
	n := 33
	f := grid.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i)/float64(n-1), float64(j)/float64(n-1)
			f.Set(math.Sin(3*x)*math.Cos(2*y)*100, i, j)
		}
	}
	d, err := Decompose(f, DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	maxAbs := func(s []float64) float64 {
		m := 0.0
		for _, v := range s {
			if a := math.Abs(v); a > m {
				m = a
			}
		}
		return m
	}
	coarse := maxAbs(d.Coeffs(0))
	finest := maxAbs(d.Coeffs(d.Levels() - 1))
	if finest*10 > coarse {
		t.Fatalf("no coefficient decay: coarse %g, finest %g", coarse, finest)
	}
}

func TestZeroCoefficientsRecomposeToZero(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d, err := Decompose(randomTensor(rng, 9, 9), DefaultOptions(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	z := d.CloneShape()
	rec := z.Recompose()
	if rec.LinfNorm() != 0 {
		t.Fatal("zero coefficients did not recompose to zero field")
	}
}

func TestCloneShapeMatchesSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, err := Decompose(randomTensor(rng, 9, 5), codec.Options{Levels: 3}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.CloneShape()
	for l := 0; l < d.Levels(); l++ {
		if len(c.Coeffs(l)) != len(d.Coeffs(l)) {
			t.Fatalf("level %d: clone size %d, want %d", l, len(c.Coeffs(l)), len(d.Coeffs(l)))
		}
	}
}

func TestSetCoeffsPanicsOnWrongLength(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d, _ := Decompose(randomTensor(rng, 9), codec.Options{Levels: 2}, 1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SetCoeffs with wrong length did not panic")
		}
	}()
	d.SetCoeffs(0, make([]float64, 1))
}

func TestTransformIsLinear(t *testing.T) {
	// Decompose(a + 2b) == Decompose(a) + 2·Decompose(b), level by level.
	rng := rand.New(rand.NewSource(7))
	a := randomTensor(rng, 9, 9)
	b := randomTensor(rng, 9, 9)
	sum := grid.New(9, 9)
	for i := range sum.Data() {
		sum.Data()[i] = a.Data()[i] + 2*b.Data()[i]
	}
	opt := DefaultOptions()
	da, _ := Decompose(a, opt, 1, nil)
	db, _ := Decompose(b, opt, 1, nil)
	ds, _ := Decompose(sum, opt, 1, nil)
	for l := 0; l < opt.Levels; l++ {
		ca, cb, cs := da.Coeffs(l), db.Coeffs(l), ds.Coeffs(l)
		for i := range cs {
			want := ca[i] + 2*cb[i]
			if math.Abs(cs[i]-want) > 1e-9 {
				t.Fatalf("linearity violated at level %d index %d: %g vs %g", l, i, cs[i], want)
			}
		}
	}
}

func TestErrorAmplificationBoundHolds(t *testing.T) {
	// Perturb each level's coefficients by a known amount and verify the
	// reconstruction error respects the naive C·Σ_l Err_l (the Eq. 6
	// bound, which the update step makes one).
	rng := rand.New(rand.NewSource(8))
	opt := DefaultOptions()
	orig := randomTensor(rng, 17, 17, 9)
	d, err := Decompose(orig, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sumErr := 0.0
	for l := 0; l < d.Levels(); l++ {
		mag := math.Pow(10, float64(-l)) // different scale per level
		cs := d.Coeffs(l)
		for i := range cs {
			cs[i] += mag * (2*rng.Float64() - 1)
		}
		sumErr += mag
	}
	rec := d.Recompose()
	achieved := grid.MaxAbsDiff(orig, rec)
	bound := NaiveErrorAmplification(opt, 3) * sumErr
	if achieved > bound {
		t.Fatalf("achieved error %g exceeds theory bound %g", achieved, bound)
	}
	// The bound should also be pessimistic — that is the paper's premise.
	if achieved > bound/2 {
		t.Logf("note: bound unusually tight (achieved %g, bound %g)", achieved, bound)
	}
}

func TestErrorAmplificationConstants(t *testing.T) {
	// Without the update step the naive constant is 1, which is no bound
	// (the exact per-level constants reach 7; DESIGN.md §5).
	if c := NaiveErrorAmplification(codec.Options{Levels: 5}, 3); c != 1 {
		t.Fatalf("predict-only amplification = %v, want 1", c)
	}
	// With it, (1+2w) per axis pass compounds over all rank·(L-1) passes.
	o := codec.Options{Levels: 5, Update: true, UpdateWeight: 0.25}
	want := math.Pow(1.5, 12)
	if c := NaiveErrorAmplification(o, 3); math.Abs(c-want) > 1e-9 {
		t.Fatalf("amplification = %v, want %v", c, want)
	}
}

func TestPartialReconstructionImprovesWithLevels(t *testing.T) {
	// Keeping more levels (zeroing fewer) should weakly decrease error.
	rng := rand.New(rand.NewSource(9))
	n := 33
	f := grid.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i)/float64(n-1), float64(j)/float64(n-1)
			f.Set(math.Sin(5*x+2*y)+0.05*rng.NormFloat64(), i, j)
		}
	}
	opt := DefaultOptions()
	d, err := Decompose(f, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	prevErr := math.Inf(1)
	for keep := 1; keep <= opt.Levels; keep++ {
		p := d.CloneShape()
		for l := 0; l < keep; l++ {
			copy(p.Coeffs(l), d.Coeffs(l))
		}
		e := grid.RMSE(f, p.Recompose())
		if e > prevErr*1.05 {
			t.Fatalf("RMSE rose from %g to %g when keeping %d levels", prevErr, e, keep)
		}
		prevErr = e
	}
	if prevErr > 1e-10 {
		t.Fatalf("keeping all levels should be exact, RMSE=%g", prevErr)
	}
}

func TestRoundTripPropertyRandomShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		rank := 1 + rng.Intn(3)
		dims := make([]int, rank)
		for i := range dims {
			dims[i] = 2 + rng.Intn(20)
		}
		levels := 1 + rng.Intn(5)
		opt := codec.Options{Levels: levels, Update: rng.Intn(2) == 0, UpdateWeight: 0.25}
		orig := randomTensor(rng, dims...)
		d, err := Decompose(orig, opt, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := d.Recompose()
		if diff := grid.MaxAbsDiff(orig, rec); diff > 1e-9 {
			t.Fatalf("dims=%v levels=%d update=%v: round trip error %g",
				dims, levels, opt.Update, diff)
		}
	}
}

func TestRoundTrip4D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	orig := randomTensor(rng, 5, 7, 3, 9)
	for _, opt := range []codec.Options{{Levels: 2}, {Levels: 3, Update: true, UpdateWeight: 0.25}} {
		d, err := Decompose(orig, opt, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if diff := grid.MaxAbsDiff(orig, d.Recompose()); diff > 1e-10 {
			t.Errorf("4-D round trip error %g under %+v", diff, opt)
		}
	}
}

func TestSingleLevelIsIdentity(t *testing.T) {
	// Levels=1 performs no transform: coefficients equal the data.
	rng := rand.New(rand.NewSource(12))
	orig := randomTensor(rng, 6, 6)
	d, err := Decompose(orig, codec.Options{Levels: 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := d.Coeffs(0)
	for i, v := range orig.Data() {
		if coeffs[i] != v {
			t.Fatalf("levels=1 transformed the data at %d", i)
		}
	}
}

func TestMoreLevelsThanResolution(t *testing.T) {
	// A 3-node grid with 6 levels: the deep levels are empty but the
	// transform must still round trip.
	rng := rand.New(rand.NewSource(13))
	orig := randomTensor(rng, 3)
	d, err := Decompose(orig, codec.Options{Levels: 6, Update: true, UpdateWeight: 0.25}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := grid.MaxAbsDiff(orig, d.Recompose()); diff > 1e-12 {
		t.Fatalf("tiny-grid round trip error %g", diff)
	}
}

func TestNewZeroMatchesDecomposeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	orig := randomTensor(rng, 9, 5)
	opt := DefaultOptions()
	d, err := Decompose(orig, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	z, err := NewZero(orig.Dims(), opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < opt.Levels; l++ {
		if len(z.Coeffs(l)) != len(d.Coeffs(l)) {
			t.Fatalf("level %d: NewZero size %d, Decompose size %d",
				l, len(z.Coeffs(l)), len(d.Coeffs(l)))
		}
		for i, v := range z.Coeffs(l) {
			if v != 0 {
				t.Fatalf("NewZero level %d index %d = %g", l, i, v)
			}
		}
	}
	if _, err := NewZero([]int{4}, codec.Options{Levels: 0}, 1); err == nil {
		t.Fatal("NewZero accepted invalid options")
	}
}

// TestNewZeroSharesItsPlan guards what a /refine pays to start: the second
// NewZero of a shape allocates its coefficient streams (8 bytes per node)
// and next to nothing else, because the interleave plan — more than another
// 8 bytes per node — is the first call's.
func TestNewZeroSharesItsPlan(t *testing.T) {
	dims, opt := []int{65, 65, 65}, DefaultOptions()
	first, err := NewZero(dims, opt, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := NewZero(dims, opt, 1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if second.Plan() != first.Plan() {
		t.Fatal("second NewZero built its own plan")
	}
	nodes := 65 * 65 * 65
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(1.1*8*float64(nodes)); got >= limit {
		t.Fatalf("second NewZero allocated %d bytes, want < %d (1.1 × 8·N)", got, limit)
	}
}

func TestRecomposeLevelFullMatchesRecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	orig := randomTensor(rng, 17, 9)
	opt := DefaultOptions()
	d, err := Decompose(orig, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := recomposeUpTo(d, opt.Levels-1)
	if err != nil {
		t.Fatal(err)
	}
	if diff := grid.MaxAbsDiff(full, d.Recompose()); diff != 0 {
		t.Fatalf("full-level RecomposeInto differs from Recompose by %g", diff)
	}
}

func TestRecomposeLevelDims(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	orig := randomTensor(rng, 17, 17, 17)
	opt := DefaultOptions()
	d, err := Decompose(orig, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 alone spans the coarsest grid: step 16 → 2 nodes per axis.
	wantDims := [][]int{{2, 2, 2}, {3, 3, 3}, {5, 5, 5}, {9, 9, 9}, {17, 17, 17}}
	for upTo := 0; upTo < opt.Levels; upTo++ {
		coarse, err := recomposeUpTo(d, upTo)
		if err != nil {
			t.Fatal(err)
		}
		for ax, want := range wantDims[upTo] {
			if coarse.Dims()[ax] != want {
				t.Fatalf("upTo=%d: dims %v, want %v", upTo, coarse.Dims(), wantDims[upTo])
			}
		}
	}
}

func TestRecomposeLevelApproximatesDownsample(t *testing.T) {
	// For a smooth field, the coarse reconstruction should be close to the
	// multilinear downsample of the original (it is an L2-flavoured
	// projection, not identical, but must track the large-scale shape).
	n := 33
	f := grid.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := float64(i)/float64(n-1), float64(j)/float64(n-1)
			f.Set(math.Sin(2*x+y)*10, i, j)
		}
	}
	opt := DefaultOptions()
	d, err := Decompose(f, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := recomposeUpTo(d, 2) // 9×9
	if err != nil {
		t.Fatal(err)
	}
	down := f.Resample(coarse.Dims()...)
	if diff := grid.MaxAbsDiff(coarse, down); diff > 0.5 {
		t.Fatalf("coarse reconstruction deviates from downsample by %g", diff)
	}
}

func TestRecomposeLevelValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d, _ := Decompose(randomTensor(rng, 9), codec.Options{Levels: 3}, 1, nil)
	for _, upTo := range []int{-1, 3} {
		_, err := d.RecomposeInto(upTo, grid.New(9))
		if err == nil || !strings.Contains(err.Error(), "RecomposeInto") {
			t.Fatalf("RecomposeInto(%d): error %v, want one naming RecomposeInto", upTo, err)
		}
	}
}
