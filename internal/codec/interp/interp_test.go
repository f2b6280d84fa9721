package interp

import (
	"math"
	"strings"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/grid"
)

// linearField builds an affine 2-D field a + b·x + c·y — exactly
// reproducible by multilinear interpolation.
func linearField(n int) *grid.Tensor {
	f := grid.New(n, n)
	data := f.Data()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			data[i*n+j] = 0.25 + 1.5*float64(i) - 0.75*float64(j)
		}
	}
	return f
}

// TestLinearFieldsHaveVanishingResiduals checks the core property of the
// predictor: an affine field is reproduced exactly by multilinear
// interpolation, so every level above the coarsest stores (near-)zero
// residuals and the stream compresses to almost nothing.
func TestLinearFieldsHaveVanishingResiduals(t *testing.T) {
	opts := codec.Options{Levels: 4}
	dec, err := Codec{}.Decompose(linearField(17), opts, 1, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	for l := 1; l < dec.Levels(); l++ {
		for i, r := range dec.Coeffs(l) {
			if math.Abs(r) > 1e-10 {
				t.Fatalf("level %d residual[%d] = %g; affine fields must predict exactly", l, i, r)
			}
		}
	}
}

// TestRecomposeLevelSubsamples checks the reduced-resolution mode through
// RecomposeInto(upTo): decoding levels 0..upTo must reproduce the original
// field on the stride-2^(L-1-upTo) sub-grid (the nodes those levels own), at
// the matching coarse dims, without reading any finer node (they hold NaN).
func TestRecomposeLevelSubsamples(t *testing.T) {
	n := 17
	f := grid.New(n, n)
	for i := range f.Data() {
		f.Data()[i] = math.Sin(float64(i) * 0.13)
	}
	opts := codec.Options{Levels: 4}
	dec, err := Codec{}.Decompose(f, opts, 1, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	for upTo := 0; upTo < opts.Levels; upTo++ {
		work := grid.New(n, n)
		for i := range work.Data() {
			work.Data()[i] = math.NaN()
		}
		for l := 0; l <= upTo; l++ {
			dec.Plan().Inject(work.Data(), l, dec.Coeffs(l))
		}
		coarse, err := dec.RecomposeInto(upTo, work)
		if err != nil {
			t.Fatalf("RecomposeInto(%d): %v", upTo, err)
		}
		step := 1 << (opts.Levels - 1 - upTo)
		wantSide := (n-1)/step + 1
		dims := coarse.Dims()
		if len(dims) != 2 || dims[0] != wantSide || dims[1] != wantSide {
			t.Fatalf("RecomposeInto(%d) dims = %v, want [%d %d]", upTo, dims, wantSide, wantSide)
		}
		for i := 0; i < wantSide; i++ {
			for j := 0; j < wantSide; j++ {
				got := coarse.Data()[i*wantSide+j]
				want := f.Data()[(i*step)*n+j*step]
				if math.Abs(got-want) > 1e-12 {
					t.Fatalf("RecomposeInto(%d)[%d,%d] = %g, want %g", upTo, i, j, got, want)
				}
			}
		}
	}
	for _, upTo := range []int{-1, opts.Levels} {
		_, err := dec.RecomposeInto(upTo, grid.New(n, n))
		if err == nil || !strings.Contains(err.Error(), "RecomposeInto") {
			t.Fatalf("RecomposeInto(%d): error %v, want one naming RecomposeInto", upTo, err)
		}
	}
}

// TestValidateRejectsBadLevels checks option validation on both transform
// entry points.
func TestValidateRejectsBadLevels(t *testing.T) {
	f := grid.New(9, 9)
	for _, levels := range []int{0, -1, 31} {
		if _, err := (Codec{}).Decompose(f, codec.Options{Levels: levels}, 1, nil); err == nil {
			t.Fatalf("Decompose accepted Levels=%d", levels)
		}
		if _, err := (Codec{}).NewZero([]int{9, 9}, codec.Options{Levels: levels}, 1); err == nil {
			t.Fatalf("NewZero accepted Levels=%d", levels)
		}
	}
}

// TestAmplificationIsOne pins the backend's structural property: prediction
// is a convex combination, so the error amplification constant is exactly 1
// for every rank.
func TestAmplificationIsOne(t *testing.T) {
	opts := codec.Options{Levels: 5, Update: true, UpdateWeight: 0.25}
	for rank := 1; rank <= 4; rank++ {
		if c := (Codec{}).NaiveAmplification(opts, rank); c != 1 {
			t.Fatalf("NaiveAmplification(rank=%d) = %g, want 1", rank, c)
		}
	}
}

// TestWorkerDeterminism checks the fan-out writes residuals into disjoint
// pre-sized slots: every worker count yields bit-identical streams.
func TestWorkerDeterminism(t *testing.T) {
	n := 33
	f := grid.New(n, n)
	for i := range f.Data() {
		f.Data()[i] = math.Cos(float64(i)*0.21) * float64(i%13)
	}
	opts := codec.Options{Levels: 5}
	ref, err := Codec{}.Decompose(f, opts, 1, nil)
	if err != nil {
		t.Fatalf("Decompose(workers=1): %v", err)
	}
	for _, workers := range []int{2, 4, 8} {
		dec, err := Codec{}.Decompose(f, opts, workers, nil)
		if err != nil {
			t.Fatalf("Decompose(workers=%d): %v", workers, err)
		}
		for l := 0; l < ref.Levels(); l++ {
			a, b := ref.Coeffs(l), dec.Coeffs(l)
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Fatalf("level %d coeff %d differs at workers=%d", l, i, workers)
				}
			}
		}
	}
}
