package bitplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/obs"
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

// kernelWorkers are the worker counts every kernel result is checked at.
var kernelWorkers = []int{1, 2, 4, 8}

// TestKernelsMatchScalarReference cross-checks the word-parallel kernels
// against the retained scalar reference over random lengths (including
// n%64 != 0, n < 64, n = 0), the full plane range, both modes, and
// NaN/Inf/denormal inputs — then over lengths spanning several error-matrix
// blocks plus a tail, with magnitude profiles that put the block fold's
// significance order at its edges: most coefficients 2⁻³⁰ below the level
// maximum (the skip fires), every word's leading digit at the top plane
// (nothing to skip), and one nonzero among zeros.
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
		label := fmt.Sprintf("n=%d planes=%d mode=%d", n, planes, mode)

		want := checkAgainstScalar(t, coeffs, planes, mode, label)
		for _, workers := range kernelWorkers {
			got, err := EncodeLevel(coeffs, planes, mode, workers, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", label, workers, err)
			}
			for _, b := range []int{0, 1, planes / 2, planes} {
				wantDec := decodePartialScalar(want, b)
				gotDec := got.DecodePartial(b, nil, workers, nil)
				for i := range wantDec {
					if math.Float64bits(gotDec[i]) != math.Float64bits(wantDec[i]) {
						t.Fatalf("%s b=%d i=%d: got %v want %v", label, b, i, gotDec[i], wantDec[i])
					}
				}
			}
			got.Release()
		}
	}

	profiles := []struct {
		name string
		// fill draws a level of n coefficients for the plane count.
		fill func(rng *rand.Rand, n, planes int) []float64
		// pairs bounds the (coefficient, plane) pairs the nega-binary fold
		// may visit (bitplane.errmatrix_pairs); nil means [0, n × planes].
		pairs func(n, planes int) (lo, hi int64)
	}{
		{"random", func(rng *rand.Rand, n, _ int) []float64 { return randomCoeffs(rng, n, false) }, nil},
		{"adversarial", func(rng *rand.Rand, n, _ int) []float64 { return randomCoeffs(rng, n, true) }, nil},
		{"skewed", func(rng *rand.Rand, n, _ int) []float64 {
			c := make([]float64, n)
			for i := range c {
				c[i] = math.Ldexp(rng.NormFloat64(), -30)
			}
			for i := 0; i < n; i += 1 + rng.Intn(500) {
				c[i] = 1 - 2*rng.Float64()
			}
			c[n-1] = -1
			return c
		}, func(n, planes int) (int64, int64) {
			if planes == 32 {
				return 0, int64(n) * 32 / 4 // the skip must fire
			}
			return 0, int64(n) * int64(planes)
		}},
		// Magnitudes in [0.75, 1] of the maximum, negative at even plane
		// counts and positive at odd ones — the sign the top position
		// planes-1 carries in nega-binary — so every quantized word's
		// leading digit is the top plane and nothing can be skipped.
		{"top-digit", func(rng *rand.Rand, n, planes int) []float64 {
			sign := 1.0
			if planes%2 == 0 {
				sign = -1
			}
			c := make([]float64, n)
			for i := range c {
				c[i] = sign * (0.75 + 0.25*rng.Float64())
			}
			c[0] = sign
			return c
		}, func(n, planes int) (int64, int64) {
			if planes == 1 {
				return 0, 0 // one plane quantizes everything to 0
			}
			return int64(n) * int64(planes), int64(n) * int64(planes)
		}},
		{"one-nonzero", func(rng *rand.Rand, n, _ int) []float64 {
			c := make([]float64, n)
			c[rng.Intn(n)] = math.Ldexp(1-2*rng.Float64(), rng.Intn(40)-20)
			return c
		}, func(_, planes int) (int64, int64) { return 0, int64(planes) }},
	}
	blockLengths := []int{errBlock, errBlock + 1, 3*errBlock + 17}
	for _, p := range profiles {
		for _, n := range blockLengths {
			for _, planes := range []int{1, 2, 3, 17, 32, 33, 59, 60} {
				coeffs := p.fill(rng, n, planes)
				for _, mode := range []Mode{Negabinary, SignMagnitude} {
					label := fmt.Sprintf("%s n=%d planes=%d mode=%d", p.name, n, planes, mode)
					checkAgainstScalar(t, coeffs, planes, mode, label)
					if mode != Negabinary {
						continue
					}
					o := obs.New()
					enc, err := EncodeLevel(coeffs, planes, mode, 1, o)
					if err != nil {
						t.Fatal(err)
					}
					enc.Release()
					lo, hi := int64(0), int64(n)*int64(planes)
					if p.pairs != nil {
						lo, hi = p.pairs(n, planes)
					}
					if got := o.Counter("bitplane.errmatrix_pairs").Value(); got < lo || got > hi {
						t.Fatalf("%s: folded %d pairs, want [%d, %d]", label, got, lo, hi)
					}
				}
			}
		}
	}
}

// checkAgainstScalar encodes coeffs at every kernelWorkers count and fails
// the test unless each encoding matches the scalar reference, which it
// returns.
func checkAgainstScalar(t *testing.T, coeffs []float64, planes int, mode Mode, label string) *LevelEncoding {
	t.Helper()
	want, _ := encodeLevelModeScalar(coeffs, planes, mode)
	for _, workers := range kernelWorkers {
		got, err := EncodeLevel(coeffs, planes, mode, workers, nil)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		compareEncodings(t, got, want, fmt.Sprintf("%s workers=%d", label, workers))
		got.Release()
	}
	return want
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
