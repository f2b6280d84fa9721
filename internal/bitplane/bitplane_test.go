package bitplane

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNegabinaryRoundTripSmall(t *testing.T) {
	for v := int64(-1000); v <= 1000; v++ {
		if got := DecodeNegabinary(EncodeNegabinary(v)); got != v {
			t.Fatalf("round trip %d -> %d", v, got)
		}
	}
}

func TestNegabinaryKnownValues(t *testing.T) {
	// Nega-binary digit expansions: 2 = 110, -1 = 11, -2 = 10, 3 = 111.
	cases := map[int64]uint64{0: 0, 1: 1, 2: 6, 3: 7, -1: 3, -2: 2, 4: 4, -3: 13}
	for v, nb := range cases {
		if got := EncodeNegabinary(v); got != nb {
			t.Errorf("EncodeNegabinary(%d) = %b, want %b", v, got, nb)
		}
	}
}

func TestNegabinaryRoundTripQuick(t *testing.T) {
	f := func(v int32) bool {
		return DecodeNegabinary(EncodeNegabinary(int64(v))) == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeLevelValidation(t *testing.T) {
	if _, err := EncodeLevel([]float64{1}, 0, Negabinary, 1, nil); err == nil {
		t.Error("planes=0 accepted")
	}
	if _, err := EncodeLevel([]float64{1}, 61, Negabinary, 1, nil); err == nil {
		t.Error("planes=61 accepted")
	}
}

func TestAllZeroLevel(t *testing.T) {
	enc, err := EncodeLevel(make([]float64, 100), 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b, e := range enc.ErrMatrix {
		if e != 0 {
			t.Fatalf("ErrMatrix[%d] = %g, want 0 for zero level", b, e)
		}
	}
	out := enc.DecodePartial(16, nil, 1, nil)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("decoded[%d] = %g, want 0", i, v)
		}
	}
}

func TestEmptyLevel(t *testing.T) {
	enc, err := EncodeLevel(nil, 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.Decode(nil); len(got) != 0 {
		t.Fatalf("decoded %d values from empty level", len(got))
	}
	if enc.PlaneSizeRaw() != 0 {
		t.Fatalf("PlaneSizeRaw = %d, want 0", enc.PlaneSizeRaw())
	}
}

func TestFullDecodeAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coeffs := make([]float64, 500)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64() * 1e3
	}
	enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(nil)
	// Residual error bounded by half a quantization unit.
	unit := math.Ldexp(1, enc.Exponent-30)
	for i := range coeffs {
		if e := math.Abs(coeffs[i] - dec[i]); e > unit {
			t.Fatalf("coeff %d: error %g exceeds unit %g", i, e, unit)
		}
	}
	if enc.ErrMatrix[32] > unit {
		t.Fatalf("ErrMatrix[32] = %g exceeds unit %g", enc.ErrMatrix[32], unit)
	}
}

func TestErrMatrixMatchesDecodePartial(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	coeffs := make([]float64, 300)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64()
	}
	enc, err := EncodeLevel(coeffs, 24, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b <= 24; b++ {
		dec := enc.DecodePartial(b, nil, 1, nil)
		maxErr := 0.0
		for i := range coeffs {
			if e := math.Abs(coeffs[i] - dec[i]); e > maxErr {
				maxErr = e
			}
		}
		if math.Abs(maxErr-enc.ErrMatrix[b]) > 1e-15 {
			t.Fatalf("b=%d: measured error %g != ErrMatrix %g", b, maxErr, enc.ErrMatrix[b])
		}
	}
}

func TestErrMatrixZeroPlanesIsMaxAbs(t *testing.T) {
	coeffs := []float64{1, -7.5, 3, 0.25}
	enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if enc.ErrMatrix[0] != 7.5 {
		t.Fatalf("ErrMatrix[0] = %g, want 7.5", enc.ErrMatrix[0])
	}
}

func TestErrMatrixBroadlyDecreasing(t *testing.T) {
	// Truncation error must shrink substantially as planes accumulate;
	// nega-binary prefixes are not strictly monotone plane-by-plane, but
	// every two additional planes can only tighten the bound.
	rng := rand.New(rand.NewSource(3))
	coeffs := make([]float64, 1000)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64() * math.Pow(10, rng.Float64()*6-3)
	}
	enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 2; b <= 32; b++ {
		if enc.ErrMatrix[b] > enc.ErrMatrix[b-2]+1e-15 {
			t.Fatalf("ErrMatrix[%d]=%g > ErrMatrix[%d]=%g", b, enc.ErrMatrix[b], b-2, enc.ErrMatrix[b-2])
		}
	}
	if enc.ErrMatrix[32] >= enc.ErrMatrix[0]/1e6 {
		t.Fatalf("full decode error %g did not shrink vs %g", enc.ErrMatrix[32], enc.ErrMatrix[0])
	}
}

func TestDecodePartialPanics(t *testing.T) {
	enc, _ := EncodeLevel([]float64{1, 2}, 8, Negabinary, 1, nil)
	for _, b := range []int{-1, 9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecodePartial(%d) did not panic", b)
				}
			}()
			enc.DecodePartial(b, nil, 1, nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DecodePartial with bad dst did not panic")
			}
		}()
		enc.DecodePartial(4, make([]float64, 5), 1, nil)
	}()
}

func TestExponentCoversMaxAbs(t *testing.T) {
	for _, m := range []float64{0.001, 0.5, 1, 1.5, 1023, 1e9, 1e-9} {
		enc, err := EncodeLevel([]float64{m, -m / 2}, 32, Negabinary, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Ldexp(1, enc.Exponent) < m {
			t.Errorf("maxAbs %g: exponent %d gives bound %g", m, enc.Exponent, math.Ldexp(1, enc.Exponent))
		}
	}
}

func TestPlaneSizeRaw(t *testing.T) {
	enc, _ := EncodeLevel(make([]float64, 17), 8, Negabinary, 1, nil)
	if enc.PlaneSizeRaw() != 3 {
		t.Fatalf("PlaneSizeRaw = %d, want 3", enc.PlaneSizeRaw())
	}
}

func TestProgressiveRefinementProperty(t *testing.T) {
	// Property: for random levels, the error with all planes is within the
	// quantization unit and prefix errors never exceed max|c| by more than
	// one quantization step's worth of overshoot.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(400)
		planes := 8 + rng.Intn(40)
		coeffs := make([]float64, n)
		scale := math.Pow(10, rng.Float64()*12-6)
		for i := range coeffs {
			coeffs[i] = rng.NormFloat64() * scale
		}
		enc, err := EncodeLevel(coeffs, planes, Negabinary, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		maxAbs := 0.0
		for _, c := range coeffs {
			if a := math.Abs(c); a > maxAbs {
				maxAbs = a
			}
		}
		// Nega-binary partial sums can overshoot the target magnitude by a
		// bounded factor; 2x max|c| is a safe sanity envelope.
		for b := 0; b <= planes; b++ {
			if enc.ErrMatrix[b] > 2*maxAbs+1e-12 {
				t.Fatalf("trial %d: ErrMatrix[%d]=%g exceeds envelope %g", trial, b, enc.ErrMatrix[b], 2*maxAbs)
			}
		}
	}
}

func TestBitsDeterministic(t *testing.T) {
	coeffs := []float64{3.14, -2.71, 0.577, -1.618}
	a, _ := EncodeLevel(coeffs, 16, Negabinary, 1, nil)
	b, _ := EncodeLevel(coeffs, 16, Negabinary, 1, nil)
	for k := range a.Bits {
		for i := range a.Bits[k] {
			if a.Bits[k][i] != b.Bits[k][i] {
				t.Fatal("encoding not deterministic")
			}
		}
	}
}

func TestSignMagnitudeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coeffs := make([]float64, 400)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64() * 100
	}
	enc, err := EncodeLevel(coeffs, 32, SignMagnitude, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := enc.Decode(nil)
	unit := math.Ldexp(1, enc.Exponent-30)
	for i := range coeffs {
		if e := math.Abs(coeffs[i] - dec[i]); e > unit {
			t.Fatalf("coeff %d: error %g exceeds unit %g", i, e, unit)
		}
	}
}

func TestSignMagnitudeMonotoneErrMatrix(t *testing.T) {
	// Unlike nega-binary, sign-magnitude prefixes never overshoot: the
	// error matrix is monotone non-increasing plane by plane (after the
	// sign plane).
	rng := rand.New(rand.NewSource(6))
	coeffs := make([]float64, 500)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64()
	}
	enc, err := EncodeLevel(coeffs, 24, SignMagnitude, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 1; b <= 24; b++ {
		if enc.ErrMatrix[b] > enc.ErrMatrix[b-1]+1e-15 {
			t.Fatalf("ErrMatrix[%d]=%g > ErrMatrix[%d]=%g",
				b, enc.ErrMatrix[b], b-1, enc.ErrMatrix[b-1])
		}
	}
}

func TestEncodeLevelModeValidation(t *testing.T) {
	if _, err := EncodeLevel([]float64{1}, 16, Mode(9), 1, nil); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

func TestModesAgreeAtFullPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coeffs := make([]float64, 200)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64() * 3
	}
	nb, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := EncodeLevel(coeffs, 32, SignMagnitude, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dn, ds := nb.Decode(nil), sm.Decode(nil)
	unit := math.Ldexp(1, nb.Exponent-30)
	for i := range coeffs {
		if math.Abs(dn[i]-ds[i]) > 2*unit {
			t.Fatalf("modes disagree at %d: %g vs %g", i, dn[i], ds[i])
		}
	}
}
