package bitplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/cpufeat"
	"pmgard/internal/interleave"
	"pmgard/internal/obs"
)

// This file retains the pre-kernel scalar implementation verbatim (modulo
// fan-out plumbing) as the reference the word-parallel kernels must match
// byte-for-byte. The property tests below drive both implementations over
// random and adversarial inputs and require identical planes, error
// matrices and partial decodes — nega-binary from EncodeLevel and the words
// path, sign-magnitude from SignMagnitude.

// encodeWordRef packs a quantized coefficient into a plane word: nega-binary,
// or with signMag a sign bit on top of planes-1 bits holding |q| (clamped to
// fit).
func encodeWordRef(q int64, planes int, signMag bool) uint64 {
	if !signMag {
		return EncodeNegabinary(q)
	}
	magBits := uint(planes - 1)
	var sign uint64
	mag := q
	if q < 0 {
		sign = 1
		mag = -q
	}
	maxMag := int64(1)<<magBits - 1
	if mag > maxMag {
		mag = maxMag
	}
	return sign<<magBits | uint64(mag)
}

// decodeWordRef reverses encodeWordRef on a (possibly truncated) word.
func decodeWordRef(w uint64, planes int, signMag bool) int64 {
	if !signMag {
		return DecodeNegabinary(w)
	}
	magBits := uint(planes - 1)
	mag := int64(w & (uint64(1)<<magBits - 1))
	if w>>magBits&1 == 1 {
		return -mag
	}
	return mag
}

// encodeLevelModeScalar is the original bit-at-a-time encoder, nega-binary
// or, with signMag, sign-magnitude.
func encodeLevelModeScalar(coeffs []float64, planes int, signMag bool) (*LevelEncoding, error) {
	if planes < 1 || planes > 60 {
		return nil, nil
	}
	n := len(coeffs)
	enc := &LevelEncoding{
		N:         n,
		Planes:    planes,
		Bits:      make([][]byte, planes),
		ErrMatrix: make([]float64, planes+1),
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
	enc.Exponent = min(enc.Exponent, 1023, 1021+planes)

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
		words[i] = encodeWordRef(q, planes, signMag)
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
			dec := float64(float64(decodeWordRef(w&mask, planes, signMag)) * unit)
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

// decodePartialScalar is the original bit-at-a-time partial decode of
// nega-binary planes.
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
		dst[i] = float64(DecodeNegabinary(w)) * unit
	}
	return dst
}

// wordsScalar assembles each coefficient's word from the first b planes one
// bit at a time: the word TransposeWords must produce.
func wordsScalar(e *LevelEncoding, b int) []uint64 {
	words := make([]uint64, e.N)
	for i := range words {
		byteIx, bitIx := i>>3, uint(i&7)
		for k := 0; k < b; k++ {
			if e.Bits[k][byteIx]>>bitIx&1 == 1 {
				words[i] |= 1 << uint(e.Planes-1-k)
			}
		}
	}
	return words
}

// checkWords fails the test unless w holds exactly want's words at prefix b
// in the width a level of e's plane count keeps.
func checkWords(t *testing.T, label string, e *LevelEncoding, w *Words, b int, want []uint64) {
	t.Helper()
	if w.Planes != e.Planes || w.Prefix != b || w.Len() != e.N || (e.Planes <= 32) != (w.W64 == nil) {
		t.Fatalf("%s: words {Planes:%d Prefix:%d len:%d W64:%v}, want {Planes:%d Prefix:%d len:%d W64:%v}",
			label, w.Planes, w.Prefix, w.Len(), w.W64 != nil, e.Planes, b, e.N, e.Planes > 32)
	}
	for i, x := range want {
		got := uint64(0)
		if w.W64 != nil {
			got = w.W64[i]
		} else {
			got = uint64(w.W32[i])
		}
		if got != x {
			t.Fatalf("%s i=%d: word %#x, want %#x", label, i, got, x)
		}
	}
}

// checkDecodeWords decodes w at prefix b to every other position of a
// NaN-filled grid, through runs of at most 7 coefficients at stride 2 laid
// out last run first, and fails the test unless each coefficient's node
// holds want's value bit for bit and no other node was written.
func checkDecodeWords(t *testing.T, label string, e *LevelEncoding, w *Words, b, workers int, want []float64) {
	t.Helper()
	grid := make([]float64, 2*e.N+1)
	for i := range grid {
		grid[i] = math.NaN()
	}
	const runLen = 7
	var runs []interleave.Run
	for first := 0; first < e.N; first += runLen {
		count := min(runLen, e.N-first)
		runs = append(runs, interleave.Run{Off: 2*(e.N-first-count) + 1, First: first, Count: count, Stride: 2})
	}
	Decode([]LevelWords{{Enc: e, Words: w, B: b}}, runs, grid, workers, nil, nil)
	for i, v := range want {
		r := runs[i/runLen]
		at := r.Off + 2*(i-r.First)
		if math.Float64bits(grid[at]) != math.Float64bits(v) {
			t.Fatalf("%s i=%d: node %d = %v, want %v", label, i, at, grid[at], v)
		}
	}
	for j := 0; j < len(grid); j += 2 {
		if !math.IsNaN(grid[j]) {
			t.Fatalf("%s: node %d, no coefficient's, was written (%v)", label, j, grid[j])
		}
	}
}

// compareEncodings fails the test unless got matches the scalar reference
// byte-for-byte (planes) and bit-for-bit (error matrix, exponent).
func compareEncodings(t *testing.T, got, want *LevelEncoding, label string) {
	t.Helper()
	if got.N != want.N || got.Planes != want.Planes || got.Exponent != want.Exponent {
		t.Fatalf("%s: header mismatch: got {N:%d P:%d E:%d} want {N:%d P:%d E:%d}",
			label, got.N, got.Planes, got.Exponent, want.N, want.Planes, want.Exponent)
	}
	comparePlanes(t, got.Bits, got.ErrMatrix, want, label)
}

// compareSignMagnitude fails the test unless enc, the encoding of coeffs,
// re-slices into the scalar sign-magnitude reference's planes and error
// matrix bit for bit.
func compareSignMagnitude(t *testing.T, enc *LevelEncoding, coeffs []float64, want *LevelEncoding, label string) {
	t.Helper()
	if enc.Exponent != want.Exponent {
		t.Fatalf("%s: exponent %d, sign-magnitude reference %d", label, enc.Exponent, want.Exponent)
	}
	bits, errMatrix := enc.SignMagnitude(coeffs)
	comparePlanes(t, bits, errMatrix, want, label+" sign-magnitude")
}

// comparePlanes fails the test unless bits and errMatrix equal want's
// byte-for-byte and bit-for-bit.
func comparePlanes(t *testing.T, bits [][]byte, errMatrix []float64, want *LevelEncoding, label string) {
	t.Helper()
	if len(bits) != len(want.Bits) || len(errMatrix) != len(want.ErrMatrix) {
		t.Fatalf("%s: %d planes and %d errors, want %d and %d", label, len(bits), len(errMatrix), len(want.Bits), len(want.ErrMatrix))
	}
	for k := range want.Bits {
		for j := range want.Bits[k] {
			if bits[k][j] != want.Bits[k][j] {
				t.Fatalf("%s: plane %d byte %d: got %08b want %08b", label, k, j, bits[k][j], want.Bits[k][j])
			}
		}
	}
	for b := range want.ErrMatrix {
		g, w := errMatrix[b], want.ErrMatrix[b]
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

// encodePath is one way the fused encode pass runs: on the AVX2 kernels or
// on the Go loops (encodeAVX2 cleared).
type encodePath struct {
	name string
	avx2 bool
}

// encodePaths are the encode paths this CPU has: the Go loops everywhere,
// the AVX2 kernels where cpufeat.AVX2 holds.
func encodePaths() []encodePath {
	ps := []encodePath{{"go", false}}
	if cpufeat.AVX2 {
		ps = append(ps, encodePath{"avx2", true})
	}
	return ps
}

// forEncodePaths runs body as one subtest per encode path, with
// encodeAVX2 set to the path's and restored after.
func forEncodePaths(t *testing.T, body func(t *testing.T)) {
	if !cpufeat.AVX2 {
		t.Log("no AVX2: checking the Go loops only")
	}
	for _, p := range encodePaths() {
		t.Run(p.name, func(t *testing.T) {
			defer func(was bool) { encodeAVX2 = was }(encodeAVX2)
			encodeAVX2 = p.avx2
			body(t)
		})
	}
}

// kernelWorkers are the worker counts every kernel result is checked at.
var kernelWorkers = []int{1, 2, 4, 8}

// TestKernelsMatchScalarReference cross-checks the word-parallel kernels
// against the retained scalar reference over random lengths (including
// n%64 != 0, n < 64, n = 0), the full plane range, both representations
// (sign-magnitude through SignMagnitude), and NaN/Inf/denormal inputs —
// then over lengths spanning several error-matrix blocks plus a tail, with
// magnitude profiles that put the block fold's
// significance order at its edges: most coefficients 2⁻³⁰ below the level
// maximum (the skip fires), every word's leading digit at the top plane
// (nothing to skip), and one nonzero among zeros.
func TestKernelsMatchScalarReference(t *testing.T) {
	forEncodePaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(51))
		lengths := []int{0, 1, 7, 63, 64, 65, 100, 128, 129, 640, 1000}
		for trial := 0; trial < 60; trial++ {
			n := lengths[trial%len(lengths)]
			if trial >= len(lengths)*2 {
				n = rng.Intn(600)
			}
			planes := 1 + rng.Intn(60)
			signMag := rng.Intn(2) == 1
			adversarial := trial%3 == 0
			coeffs := randomCoeffs(rng, n, adversarial)
			label := fmt.Sprintf("n=%d planes=%d signMag=%v", n, planes, signMag)

			want := checkAgainstScalar(t, coeffs, planes, signMag, label)
			if signMag {
				continue // nothing decodes sign-magnitude planes
			}
			for _, workers := range kernelWorkers {
				got, err := EncodeLevel(coeffs, planes, workers, nil)
				if err != nil {
					t.Fatalf("%s workers=%d: %v", label, workers, err)
				}
				for _, b := range []int{0, 1, planes / 2, planes} {
					wantDec := decodePartialScalar(want, b)
					gotDec := decodePrefix(got, b, workers)
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
		// Every decode regime at every prefix: b ≤ 8 through 8×8 tiles, planes
		// ≤ 32 through the half-width transpose (every plane count), wider words
		// through the 64-row one (33, 59, 60), over several groups — stale
		// transpose rows carry from one group to the next — and a partial tail
		// group on either side of the half-width kernel's 32-coefficient split.
		// Each regime is checked three ways: the words TransposeWords emits, and
		// Decode from them to scattered grid nodes — from words of exactly
		// b planes and from a snapshot of all of them, which must decode the
		// same b-plane prefix.
		for _, p := range profiles {
			if p.name != "random" && p.name != "skewed" {
				continue
			}
			for planes := 1; planes <= 60; planes++ {
				if planes > 32 && planes != 33 && planes != 59 && planes != 60 {
					continue
				}
				for _, tail := range []int{1, 31, 32, 33, 63} {
					n := 4*64 + tail
					coeffs := p.fill(rng, n, planes)
					enc, _ := encodeLevelModeScalar(coeffs, planes, false)
					var full Words
					enc.TransposeWords(planes, &full, 1)
					checkWords(t, fmt.Sprintf("%s n=%d planes=%d full words", p.name, n, planes), enc, &full, planes, wordsScalar(enc, planes))
					for b := 0; b <= planes; b++ {
						want := decodePartialScalar(enc, b)
						wantWords := wordsScalar(enc, b)
						for _, workers := range []int{1, 2, 4} {
							label := fmt.Sprintf("%s n=%d planes=%d b=%d workers=%d", p.name, n, planes, b, workers)
							var w Words
							enc.TransposeWords(b, &w, workers)
							checkWords(t, label, enc, &w, b, wantWords)
							checkDecodeWords(t, label+" from words", enc, &w, b, workers, want)
							checkDecodeWords(t, label+" from a full snapshot", enc, &full, b, workers, want)
						}
					}
				}
			}
		}

		blockLengths := []int{foldBlock, foldBlock + 1, 3*foldBlock + 17}
		for _, p := range profiles {
			for _, n := range blockLengths {
				for _, planes := range []int{1, 2, 3, 17, 32, 33, 59, 60} {
					coeffs := p.fill(rng, n, planes)
					for _, signMag := range []bool{false, true} {
						label := fmt.Sprintf("%s n=%d planes=%d signMag=%v", p.name, n, planes, signMag)
						checkAgainstScalar(t, coeffs, planes, signMag, label)
						if signMag {
							continue
						}
						o := obs.New()
						enc, err := EncodeLevel(coeffs, planes, 1, o)
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
	})
}

// checkAgainstScalar encodes coeffs at every kernelWorkers count and fails
// the test unless each encoding — or, with signMag, its SignMagnitude
// re-slicing — matches the scalar reference, which it returns.
func checkAgainstScalar(t *testing.T, coeffs []float64, planes int, signMag bool, label string) *LevelEncoding {
	t.Helper()
	want, _ := encodeLevelModeScalar(coeffs, planes, signMag)
	for _, workers := range kernelWorkers {
		got, err := EncodeLevel(coeffs, planes, workers, nil)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", label, workers, err)
		}
		if signMag {
			compareSignMagnitude(t, got, coeffs, want, fmt.Sprintf("%s workers=%d", label, workers))
		} else {
			compareEncodings(t, got, want, fmt.Sprintf("%s workers=%d", label, workers))
		}
		got.Release()
	}
	return want
}

// TestKernelsDenormalLevel pins the denormal-underflow early return: the
// kernels must reproduce the scalar path's all-zero planes and
// maxAbs-filled error matrix.
func TestKernelsDenormalLevel(t *testing.T) {
	forEncodePaths(t, func(t *testing.T) {
		coeffs := []float64{math.Ldexp(1, -1070), -math.Ldexp(1, -1071), 0}
		want, _ := encodeLevelModeScalar(coeffs, 32, false)
		got, err := EncodeLevel(coeffs, 32, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Release()
		compareEncodings(t, got, want, "denormal")
	})
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

// TestFusedEncodeMatchesScalarReference drives the fused block pass across
// its edges — levels of one coefficient, around one group, around one
// block, and several blocks plus a tail — at workers 1, 2, 3 and 8, with
// and without telemetry (which moves the single-worker encode onto the
// pool): planes and ErrMatrix must equal the scalar reference bit for bit —
// and so must the encoding's sign-magnitude re-slicing the scalar
// sign-magnitude reference — and each chunk's error-matrix fold must count
// as one pool.bitplane.errmatrix task. Odd lengths are salted with NaN, ±Inf
// and denormals.
func TestFusedEncodeMatchesScalarReference(t *testing.T) {
	forEncodePaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		lengths := []int{1, 63, 64, 65, foldBlock - 1, foldBlock, foldBlock + 1, 3*foldBlock + 17}
		for _, n := range lengths {
			for _, planes := range []int{3, 32, 60} {
				coeffs := randomCoeffs(rng, n, n%2 == 1)
				for _, signMag := range []bool{false, true} {
					want, _ := encodeLevelModeScalar(coeffs, planes, signMag)
					for _, workers := range []int{1, 2, 3, 8} {
						for _, traced := range []bool{false, true} {
							var o *obs.Obs
							if traced {
								o = obs.New()
							}
							label := fmt.Sprintf("n=%d planes=%d signMag=%v workers=%d traced=%v", n, planes, signMag, workers, traced)
							got, err := EncodeLevel(coeffs, planes, workers, o)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if signMag {
								compareSignMagnitude(t, got, coeffs, want, label)
							} else {
								compareEncodings(t, got, want, label)
							}
							got.Release()
							if o == nil {
								continue
							}
							chunks := int64(min(workers, (n+63)/64))
							if want.Exponent == math.MinInt16 {
								chunks = 0 // a level with nothing to quantize never reaches the pass
							}
							if got := o.Counter("pool.bitplane.errmatrix.completed").Value(); got != chunks {
								t.Fatalf("%s: %d error-matrix tasks, want one per chunk (%d)", label, got, chunks)
							}
						}
					}
				}
			}
		}
	})
}
