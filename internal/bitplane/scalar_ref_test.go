package bitplane

import (
	"math"
	"math/rand"
	"testing"
)

// This file retains the pre-kernel scalar implementation verbatim (modulo
// fan-out plumbing) as the reference the word-parallel kernels must match
// byte-for-byte. The property tests below drive both implementations over
// random and adversarial inputs and require identical planes, error
// matrices and partial decodes.

// encodeLevelModeScalar is the original bit-at-a-time encoder.
func encodeLevelModeScalar(coeffs []float64, planes int, mode Mode) (*LevelEncoding, error) {
	if planes < 1 || planes > 60 {
		return nil, nil
	}
	n := len(coeffs)
	enc := &LevelEncoding{
		N:         n,
		Planes:    planes,
		Bits:      make([][]byte, planes),
		ErrMatrix: make([]float64, planes+1),
		Mode:      mode,
	}
	planeBytes := (n + 7) / 8
	for k := range enc.Bits {
		enc.Bits[k] = make([]byte, planeBytes)
	}

	maxAbs := 0.0
	for _, c := range coeffs {
		if a := math.Abs(c); a > maxAbs && !math.IsInf(c, 0) {
			maxAbs = a
		}
	}
	if maxAbs == 0 || n == 0 {
		enc.Exponent = math.MinInt16
		return enc, nil
	}
	enc.Exponent = int(math.Ceil(math.Log2(maxAbs)))
	if math.Pow(2, float64(enc.Exponent)) < maxAbs {
		enc.Exponent++
	}
	if enc.Exponent > 1023 {
		enc.Exponent = 1023
	}

	unit := math.Ldexp(1, enc.Exponent-(planes-2))
	limit := int64(1) << uint(planes-2)
	if unit == 0 {
		enc.Exponent = math.MinInt16
		for b := range enc.ErrMatrix {
			enc.ErrMatrix[b] = maxAbs
		}
		return enc, nil
	}

	words := make([]uint64, n)
	for i, c := range coeffs {
		var q int64
		switch {
		case math.IsNaN(c):
			q = 0
		case math.IsInf(c, 1):
			q = limit
		case math.IsInf(c, -1):
			q = -limit
		default:
			q = int64(math.Round(c / unit))
			if q > limit {
				q = limit
			} else if q < -limit {
				q = -limit
			}
		}
		words[i] = encodeWord(q, planes, mode)
	}

	for i, w := range words {
		byteIx, bitIx := i>>3, uint(i&7)
		for k := 0; k < planes; k++ {
			if w>>(uint(planes-1-k))&1 == 1 {
				enc.Bits[k][byteIx] |= 1 << bitIx
			}
		}
	}

	for b := 0; b <= planes; b++ {
		var mask uint64
		if b > 0 {
			mask = ((uint64(1) << uint(b)) - 1) << uint(planes-b)
		}
		maxErr := 0.0
		for i, w := range words {
			if c := coeffs[i]; math.IsNaN(c) || math.IsInf(c, 0) {
				continue
			}
			dec := float64(decodeWord(w&mask, planes, mode)) * unit
			e := math.Abs(coeffs[i] - dec)
			if math.IsInf(e, 0) {
				e = math.MaxFloat64
			}
			if e > maxErr {
				maxErr = e
			}
		}
		enc.ErrMatrix[b] = maxErr
	}
	return enc, nil
}

// decodePartialScalar is the original bit-at-a-time partial decode.
func decodePartialScalar(e *LevelEncoding, b int) []float64 {
	dst := make([]float64, e.N)
	unit := e.unitSize()
	if unit == 0 || b == 0 {
		return dst
	}
	for i := range dst {
		byteIx, bitIx := i>>3, uint(i&7)
		var w uint64
		for k := 0; k < b; k++ {
			if e.Bits[k][byteIx]>>bitIx&1 == 1 {
				w |= 1 << uint(e.Planes-1-k)
			}
		}
		dst[i] = float64(decodeWord(w, e.Planes, e.Mode)) * unit
	}
	return dst
}

// compareEncodings fails the test unless got matches the scalar reference
// byte-for-byte (planes) and bit-for-bit (error matrix, exponent).
func compareEncodings(t *testing.T, got, want *LevelEncoding, label string) {
	t.Helper()
	if got.N != want.N || got.Planes != want.Planes || got.Exponent != want.Exponent || got.Mode != want.Mode {
		t.Fatalf("%s: header mismatch: got {N:%d P:%d E:%d M:%d} want {N:%d P:%d E:%d M:%d}",
			label, got.N, got.Planes, got.Exponent, got.Mode, want.N, want.Planes, want.Exponent, want.Mode)
	}
	for k := range want.Bits {
		for j := range want.Bits[k] {
			if got.Bits[k][j] != want.Bits[k][j] {
				t.Fatalf("%s: plane %d byte %d: got %08b want %08b", label, k, j, got.Bits[k][j], want.Bits[k][j])
			}
		}
	}
	for b := range want.ErrMatrix {
		g, w := got.ErrMatrix[b], want.ErrMatrix[b]
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: ErrMatrix[%d]: got %v want %v", label, b, g, w)
		}
	}
}

// randomCoeffs draws a level with the requested adversarial seasoning.
func randomCoeffs(rng *rand.Rand, n int, adversarial bool) []float64 {
	c := make([]float64, n)
	for i := range c {
		switch {
		case adversarial && rng.Intn(17) == 0:
			switch rng.Intn(4) {
			case 0:
				c[i] = math.NaN()
			case 1:
				c[i] = math.Inf(1)
			case 2:
				c[i] = math.Inf(-1)
			default:
				c[i] = math.Ldexp(rng.Float64(), -1060) // denormal
			}
		default:
			c[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(40)-20)
		}
	}
	return c
}

// TestKernelsMatchScalarReference cross-checks the word-parallel kernels
// against the retained scalar reference over random lengths (including
// n%64 != 0, n < 64, n = 0), the full plane range, both modes, and
// NaN/Inf/denormal inputs.
func TestKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	lengths := []int{0, 1, 7, 63, 64, 65, 100, 128, 129, 640, 1000}
	for trial := 0; trial < 60; trial++ {
		n := lengths[trial%len(lengths)]
		if trial >= len(lengths)*2 {
			n = rng.Intn(600)
		}
		planes := 1 + rng.Intn(60)
		mode := Mode(rng.Intn(2))
		adversarial := trial%3 == 0
		coeffs := randomCoeffs(rng, n, adversarial)

		want, _ := encodeLevelModeScalar(coeffs, planes, mode)
		for _, workers := range []int{1, 4} {
			got, err := EncodeLevel(coeffs, planes, mode, workers, nil)
			if err != nil {
				t.Fatalf("n=%d planes=%d mode=%d workers=%d: %v", n, planes, mode, workers, err)
			}
			compareEncodings(t, got, want, "encode")

			for _, b := range []int{0, 1, planes / 2, planes} {
				wantDec := decodePartialScalar(want, b)
				gotDec := got.DecodePartial(b, nil, workers, nil)
				for i := range wantDec {
					if math.Float64bits(gotDec[i]) != math.Float64bits(wantDec[i]) {
						t.Fatalf("n=%d planes=%d mode=%d b=%d i=%d: got %v want %v",
							n, planes, mode, b, i, gotDec[i], wantDec[i])
					}
				}
			}
			got.Release()
		}
	}
}

// TestKernelsDenormalLevel pins the denormal-underflow early return: the
// kernels must reproduce the scalar path's all-zero planes and
// maxAbs-filled error matrix.
func TestKernelsDenormalLevel(t *testing.T) {
	coeffs := []float64{math.Ldexp(1, -1070), -math.Ldexp(1, -1071), 0}
	want, _ := encodeLevelModeScalar(coeffs, 32, Negabinary)
	got, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Release()
	compareEncodings(t, got, want, "denormal")
}

// TestTranspose64Involution pins the transpose network's defining
// properties: applying it twice restores the matrix, and a single
// application realizes out[r] bit p = in[63-p] bit (63-r).
func TestTranspose64Involution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var m, orig [64]uint64
	for i := range m {
		m[i] = rng.Uint64()
	}
	orig = m
	transpose64(&m)
	for r := 0; r < 64; r++ {
		for p := 0; p < 64; p++ {
			got := m[r] >> uint(p) & 1
			want := orig[63-p] >> uint(63-r) & 1
			if got != want {
				t.Fatalf("transpose64: out[%d] bit %d = %d, want in[%d] bit %d = %d", r, p, got, 63-p, 63-r, want)
			}
		}
	}
	transpose64(&m)
	if m != orig {
		t.Fatal("transpose64 applied twice did not restore the matrix")
	}
}
