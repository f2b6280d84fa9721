package bitplane

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// decodePrefix decodes the first b planes of e the way a request does:
// TransposeWords into words, then DecodeWords in coefficient order.
func decodePrefix(e *LevelEncoding, b, workers int) []float64 {
	var w Words
	e.TransposeWords(b, &w, workers)
	dst := make([]float64, e.N)
	e.DecodeWords(&w, b, dst, nil, workers, nil, nil)
	return dst
}

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
	if _, err := EncodeLevel([]float64{1}, 0, 1, nil); err == nil {
		t.Error("planes=0 accepted")
	}
	if _, err := EncodeLevel([]float64{1}, 61, 1, nil); err == nil {
		t.Error("planes=61 accepted")
	}
}

func TestAllZeroLevel(t *testing.T) {
	enc, err := EncodeLevel(make([]float64, 100), 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b, e := range enc.ErrMatrix {
		if e != 0 {
			t.Fatalf("ErrMatrix[%d] = %g, want 0 for zero level", b, e)
		}
	}
	out := decodePrefix(enc, 16, 1)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("decoded[%d] = %g, want 0", i, v)
		}
	}
}

func TestEmptyLevel(t *testing.T) {
	enc, err := EncodeLevel(nil, 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodePrefix(enc, enc.Planes, 1); len(got) != 0 {
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
	enc, err := EncodeLevel(coeffs, 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := decodePrefix(enc, enc.Planes, 1)
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
	enc, err := EncodeLevel(coeffs, 24, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b <= 24; b++ {
		dec := decodePrefix(enc, b, 1)
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
	enc, err := EncodeLevel(coeffs, 32, 1, nil)
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
	enc, err := EncodeLevel(coeffs, 32, 1, nil)
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

// TestDecodePartialPanics checks that the words path refuses a prefix out
// of range and a destination of the wrong length, naming the length it got.
func TestDecodePartialPanics(t *testing.T) {
	enc, _ := EncodeLevel([]float64{1, 2, 3, 4}, 8, 1, nil)
	var w Words
	enc.TransposeWords(8, &w, 1)
	panics := func(label, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s did not panic", label)
			} else if msg, _ := r.(string); !strings.Contains(msg, want) {
				t.Errorf("%s panicked with %q, want it to contain %q", label, msg, want)
			}
		}()
		f()
	}
	for _, b := range []int{-1, 9} {
		panics("TransposeWords out of range", "out of range", func() { enc.TransposeWords(b, new(Words), 1) })
		panics("DecodeWords out of range", "out of range", func() { enc.DecodeWords(&w, b, make([]float64, 4), nil, 1, nil, nil) })
	}
	panics("DecodeWords into a short dst", "into 5 values, want 4", func() { enc.DecodeWords(&w, 4, make([]float64, 5), nil, 1, nil, nil) })
	panics("DecodeWords to too few positions", "into 3 positions of 8, want 4", func() { enc.DecodeWords(&w, 4, make([]float64, 8), []int{0, 1, 2}, 1, nil, nil) })
	panics("DecodeWords from a shorter prefix", "do not hold it", func() {
		var short Words
		enc.TransposeWords(2, &short, 1)
		enc.DecodeWords(&short, 4, make([]float64, 4), nil, 1, nil, nil)
	})
}

func TestExponentCoversMaxAbs(t *testing.T) {
	for _, m := range []float64{0.001, 0.5, 1, 1.5, 1023, 1e9, 1e-9} {
		enc, err := EncodeLevel([]float64{m, -m / 2}, 32, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Ldexp(1, enc.Exponent) < m {
			t.Errorf("maxAbs %g: exponent %d gives bound %g", m, enc.Exponent, math.Ldexp(1, enc.Exponent))
		}
	}
}

func TestPlaneSizeRaw(t *testing.T) {
	enc, _ := EncodeLevel(make([]float64, 17), 8, 1, nil)
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
		enc, err := EncodeLevel(coeffs, planes, 1, nil)
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
	a, _ := EncodeLevel(coeffs, 16, 1, nil)
	b, _ := EncodeLevel(coeffs, 16, 1, nil)
	for k := range a.Bits {
		for i := range a.Bits[k] {
			if a.Bits[k][i] != b.Bits[k][i] {
				t.Fatal("encoding not deterministic")
			}
		}
	}
}

// decodeSignMagnitude reads the first b of a level's sign-magnitude planes
// back one bit at a time: coefficient i's sign from plane 0 and its
// magnitude from planes 1..b-1, dequantized by the level's unit.
func decodeSignMagnitude(e *LevelEncoding, bits [][]byte, b int) []float64 {
	dst := make([]float64, e.N)
	for i := range dst {
		bit := func(k int) int64 { return int64(bits[k][i>>3] >> uint(i&7) & 1) }
		var mag int64
		for k := 1; k < b; k++ {
			mag |= bit(k) << uint(e.Planes-1-k)
		}
		if b > 0 && bit(0) == 1 {
			mag = -mag
		}
		dst[i] = float64(mag) * e.unitSize()
	}
	return dst
}

func TestSignMagnitudeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	coeffs := make([]float64, 400)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64() * 100
	}
	enc, err := EncodeLevel(coeffs, 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bits, errMatrix := enc.SignMagnitude(coeffs)
	dec := decodeSignMagnitude(enc, bits, enc.Planes)
	unit := math.Ldexp(1, enc.Exponent-30)
	maxErr := 0.0
	for i := range coeffs {
		e := math.Abs(coeffs[i] - dec[i])
		if e > unit {
			t.Fatalf("coeff %d: error %g exceeds unit %g", i, e, unit)
		}
		maxErr = max(maxErr, e)
	}
	if maxErr != errMatrix[enc.Planes] {
		t.Fatalf("measured full-precision error %g, error matrix says %g", maxErr, errMatrix[enc.Planes])
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
	enc, err := EncodeLevel(coeffs, 24, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, errMatrix := enc.SignMagnitude(coeffs)
	for b := 1; b <= 24; b++ {
		if errMatrix[b] > errMatrix[b-1]+1e-15 {
			t.Fatalf("ErrMatrix[%d]=%g > ErrMatrix[%d]=%g",
				b, errMatrix[b], b-1, errMatrix[b-1])
		}
	}
}

// TestEncodeLevelModeValidation checks that SignMagnitude refuses
// coefficients other than the encoding's own count, nothing-quantized
// levels included.
func TestEncodeLevelModeValidation(t *testing.T) {
	for _, coeffs := range [][]float64{{1, -2, 3, 0.5}, make([]float64, 4)} {
		enc, err := EncodeLevel(coeffs, 16, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]float64{nil, coeffs[:3], append(slices.Clone(coeffs), 0)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("SignMagnitude of %d coefficients for a level of 4 did not panic", len(bad))
					}
				}()
				enc.SignMagnitude(bad)
			}()
		}
	}
}

// TestModesAgreeAtFullPrecision checks that both representations hold the
// same quantized integers: at full precision they decode to the same
// values, and their error matrices agree bit for bit.
func TestModesAgreeAtFullPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coeffs := make([]float64, 200)
	for i := range coeffs {
		coeffs[i] = rng.NormFloat64() * 3
	}
	coeffs[3], coeffs[11] = math.Inf(1), math.NaN()
	nb, err := EncodeLevel(coeffs, 32, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bits, errMatrix := nb.SignMagnitude(coeffs)
	if got, want := errMatrix[nb.Planes], nb.ErrMatrix[nb.Planes]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("full-precision error: sign-magnitude %v, nega-binary %v", got, want)
	}
	if got, want := errMatrix[0], nb.ErrMatrix[0]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("error of reading nothing: sign-magnitude %v, nega-binary %v", got, want)
	}
	dn, ds := decodePrefix(nb, nb.Planes, 1), decodeSignMagnitude(nb, bits, nb.Planes)
	for i := range coeffs {
		if math.Float64bits(dn[i]) != math.Float64bits(ds[i]) {
			t.Fatalf("modes disagree at %d: %g vs %g", i, dn[i], ds[i])
		}
	}
}
