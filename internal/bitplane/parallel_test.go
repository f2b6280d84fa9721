package bitplane

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// encodingsEqual reports whether two level encodings are byte-for-byte and
// bit-for-bit identical, including the error matrix.
func encodingsEqual(a, b *LevelEncoding) bool {
	if a.N != b.N || a.Planes != b.Planes || a.Exponent != b.Exponent {
		return false
	}
	if len(a.Bits) != len(b.Bits) || len(a.ErrMatrix) != len(b.ErrMatrix) {
		return false
	}
	for k := range a.Bits {
		if !bytes.Equal(a.Bits[k], b.Bits[k]) {
			return false
		}
	}
	for i := range a.ErrMatrix {
		// Compare bit patterns so NaN (never produced, but cheap to rule
		// out) would not compare equal by accident.
		if math.Float64bits(a.ErrMatrix[i]) != math.Float64bits(b.ErrMatrix[i]) {
			return false
		}
	}
	return true
}

// adversarial builds the adversarial input families: NaN, ±Inf, denormals,
// magnitudes near MaxFloat64 and all-zero levels, plus mixtures with normal
// values.
func adversarial(rng *rand.Rand, n int) map[string][]float64 {
	normal := make([]float64, n)
	for i := range normal {
		normal[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-4))
	}
	mixed := make([]float64, n)
	copy(mixed, normal)
	for i := 0; i < n; i += 7 {
		switch (i / 7) % 3 {
		case 0:
			mixed[i] = math.NaN()
		case 1:
			mixed[i] = math.Inf(1)
		case 2:
			mixed[i] = math.Inf(-1)
		}
	}
	denormal := make([]float64, n)
	for i := range denormal {
		denormal[i] = float64(rng.Intn(100)) * 5e-324 // sub-normal magnitudes
	}
	allNaN := make([]float64, n)
	for i := range allNaN {
		allNaN[i] = math.NaN()
	}
	allInf := make([]float64, n)
	for i := range allInf {
		allInf[i] = math.Inf(1 - 2*(i&1))
	}
	huge := make([]float64, n)
	for i := range huge {
		huge[i] = float64(1-2*(i&1)) * math.MaxFloat64 / float64(1+i%5)
	}
	return map[string][]float64{
		"normal":   normal,
		"mixed":    mixed,
		"denormal": denormal,
		"zero":     make([]float64, n),
		"allNaN":   allNaN,
		"allInf":   allInf,
		"huge":     huge,
	}
}

// TestEncodeWorkersBitIdentical is the property test for the encoder's
// determinism invariant: for random sizes and adversarial inputs, every
// worker count produces a byte-identical encoding, whose sign-magnitude
// re-slicing matches the scalar sign-magnitude reference.
func TestEncodeWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(700) + 1
		planes := []int{4, 17, 32, 60}[rng.Intn(4)]
		for name, coeffs := range adversarial(rng, n) {
			ref, err := EncodeLevel(coeffs, planes, 1, nil)
			if err != nil {
				t.Fatalf("%s n=%d planes=%d: %v", name, n, planes, err)
			}
			signMag, _ := encodeLevelModeScalar(coeffs, planes, true)
			for _, workers := range []int{2, 8} {
				got, err := EncodeLevel(coeffs, planes, workers, nil)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if !encodingsEqual(ref, got) {
					t.Fatalf("%s n=%d planes=%d workers=%d: encoding differs from sequential",
						name, n, planes, workers)
				}
				compareSignMagnitude(t, got, coeffs, signMag, fmt.Sprintf("%s n=%d planes=%d workers=%d", name, n, planes, workers))
			}
		}
	}
}

// TestDecodeWorkersBitIdentical asserts that a parallel partial decode
// through the words path matches the sequential one bit for bit at every
// prefix length.
func TestDecodeWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	n := 513
	for name, coeffs := range adversarial(rng, n) {
		enc, err := EncodeLevel(coeffs, 32, 4, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, b := range []int{0, 1, 7, 16, 32} {
			want := decodePrefix(enc, b, 1)
			for _, workers := range []int{2, 8} {
				got := decodePrefix(enc, b, workers)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%s b=%d workers=%d: coeff %d differs (%g vs %g)",
							name, b, workers, i, want[i], got[i])
					}
				}
			}
		}
	}
}

// TestRoundTripErrorBoundedAdversarial checks that for every input family
// the full decode honors the residual error matrix entry on finite
// coefficients, decoded values are always finite, and the error matrix
// itself never contains NaN or Inf.
func TestRoundTripErrorBoundedAdversarial(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 6; trial++ {
		n := rng.Intn(300) + 1
		for name, coeffs := range adversarial(rng, n) {
			for _, workers := range []int{1, 2, 8} {
				enc, err := EncodeLevel(coeffs, 32, workers, nil)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for b, e := range enc.ErrMatrix {
					if math.IsNaN(e) || math.IsInf(e, 0) {
						t.Fatalf("%s workers=%d: ErrMatrix[%d] = %g", name, workers, b, e)
					}
				}
				dec := decodePrefix(enc, enc.Planes, workers)
				bound := enc.ErrMatrix[enc.Planes]
				for i, v := range dec {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Fatalf("%s workers=%d: decoded coeff %d = %g", name, workers, i, v)
					}
					c := coeffs[i]
					if math.IsNaN(c) || math.IsInf(c, 0) {
						continue // excluded from the error matrix by contract
					}
					if e := math.Abs(c - v); e > bound {
						t.Fatalf("%s workers=%d: coeff %d error %g exceeds residual bound %g",
							name, workers, i, e, bound)
					}
				}
			}
		}
	}
}

// TestDenormalLevelSentinel pins the denormal-underflow contract: the level
// encodes as the zero sentinel and every error-matrix entry records the
// residual magnitude.
func TestDenormalLevelSentinel(t *testing.T) {
	coeffs := []float64{5e-324, -1.5e-323, 4.9e-322, 0}
	enc, err := EncodeLevel(coeffs, 32, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc.Exponent != math.MinInt16 {
		t.Fatalf("Exponent = %d, want zero sentinel", enc.Exponent)
	}
	for b, e := range enc.ErrMatrix {
		if e != 4.9e-322 {
			t.Fatalf("ErrMatrix[%d] = %g, want residual magnitude 4.9e-322", b, e)
		}
	}
	for i, v := range decodePrefix(enc, enc.Planes, 1) {
		if v != 0 {
			t.Fatalf("decoded coeff %d = %g, want 0", i, v)
		}
	}
}

// TestHugeMagnitudeStaysFinite guards the exponent cap: magnitudes near
// MaxFloat64 must not produce Inf in the dequantized values or the error
// matrix.
func TestHugeMagnitudeStaysFinite(t *testing.T) {
	coeffs := []float64{math.MaxFloat64, -math.MaxFloat64 / 2, 1e300, -3}
	enc, err := EncodeLevel(coeffs, 32, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b, e := range enc.ErrMatrix {
		if math.IsInf(e, 0) || math.IsNaN(e) {
			t.Fatalf("ErrMatrix[%d] = %g", b, e)
		}
	}
	for i, v := range decodePrefix(enc, enc.Planes, 1) {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("decoded coeff %d = %g", i, v)
		}
	}
}
