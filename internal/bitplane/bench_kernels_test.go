package bitplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Kernel benchmarks: word-parallel implementation vs the retained scalar
// reference, at the paper's configuration (32 planes). They size the kernel
// in isolation; what the kernels cost inside a request is the repository
// benchmark's bitplane.* per-layer metrics (benchmark/README.md).

const benchN = 1 << 15

func benchCoeffs(n int) []float64 {
	rng := rand.New(rand.NewSource(9))
	c := make([]float64, n)
	for i := range c {
		c[i] = math.Ldexp(rng.NormFloat64(), rng.Intn(20)-10)
	}
	return c
}

// BenchmarkEncode measures the word-parallel single-thread encode
// (quantize + plane transpose + incremental error matrix) with pooled
// buffers recycled every iteration.
func BenchmarkEncode(b *testing.B) {
	coeffs := benchCoeffs(benchN)
	b.SetBytes(benchN * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		enc.Release()
	}
}

// BenchmarkEncodeScalarRef measures the retained scalar reference encoder
// on the same input — the "before" of BenchmarkEncode.
func BenchmarkEncodeScalarRef(b *testing.B) {
	coeffs := benchCoeffs(benchN)
	b.SetBytes(benchN * 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encodeLevelModeScalar(coeffs, 32, Negabinary); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePartial measures word-parallel partial decodes at several
// prefix depths, reusing the destination so the steady-state path is
// allocation-free.
func BenchmarkDecodePartial(b *testing.B) {
	coeffs := benchCoeffs(benchN)
	enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer enc.Release()
	dst := make([]float64, benchN)
	for _, depth := range []int{4, 8, 16, 32} {
		b.Run(planeDepthName(depth), func(b *testing.B) {
			b.SetBytes(benchN * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc.DecodePartial(depth, dst, 1, nil)
			}
		})
	}
}

// BenchmarkDecodePartialScalarRef measures the scalar reference decode at
// the same prefix depths.
func BenchmarkDecodePartialScalarRef(b *testing.B) {
	coeffs := benchCoeffs(benchN)
	enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer enc.Release()
	for _, depth := range []int{4, 8, 16, 32} {
		b.Run(planeDepthName(depth), func(b *testing.B) {
			b.SetBytes(benchN * 8)
			for i := 0; i < b.N; i++ {
				decodePartialScalar(enc, depth)
			}
		})
	}
}

// finest129N is the coefficient count of the finest level of a 129³ field
// under the default five-level decomposition (129³ − 65³).
const finest129N = 1872064

// heavyTailedCoeffs draws a level whose magnitudes fall off the way a
// refactored field's do: most coefficients many binary orders below the
// level maximum, a few near it (exponents exponentially distributed, mean
// 16 octaves down).
func heavyTailedCoeffs(n int) []float64 {
	rng := rand.New(rand.NewSource(11))
	c := make([]float64, n)
	for i := range c {
		c[i] = math.Ldexp(rng.NormFloat64(), -int(rng.ExpFloat64()*16))
	}
	return c
}

// BenchmarkErrMatrix isolates the error-matrix collection: the incremental
// block fold vs the scalar per-prefix re-decode, and the fold alone at the
// size and magnitude profile of the finest 129³ level, where the encoder
// spends most of its error-matrix time.
func BenchmarkErrMatrix(b *testing.B) {
	const planes = 32
	coeffs := benchCoeffs(benchN)
	unit, words := benchWords(b, coeffs, planes)
	out := make([]float64, planes+1)

	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			clear(out)
			errMatrixRange(coeffs, words, unit, planes, Negabinary, 0, benchN, out)
		}
	})
	b.Run("incremental/finest129", func(b *testing.B) {
		coeffs := heavyTailedCoeffs(finest129N)
		unit, words := benchWords(b, coeffs, planes)
		b.SetBytes(finest129N * 8)
		b.ReportAllocs()
		b.ResetTimer()
		var pairs int64
		for i := 0; i < b.N; i++ {
			clear(out)
			pairs = errMatrixRange(coeffs, words, unit, planes, Negabinary, 0, finest129N, out)
		}
		b.ReportMetric(float64(pairs)/(finest129N*planes), "pair-share")
	})
	// The scalar loop mirrors the original implementation exactly,
	// including its per-element non-finite guards.
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for p := 0; p <= planes; p++ {
				var mask uint64
				if p > 0 {
					mask = ((uint64(1) << uint(p)) - 1) << uint(planes-p)
				}
				maxErr := 0.0
				for j, w := range words {
					if c := coeffs[j]; math.IsNaN(c) || math.IsInf(c, 0) {
						continue
					}
					dec := float64(decodeWord(w&mask, planes, Negabinary)) * unit
					e := math.Abs(coeffs[j] - dec)
					if math.IsInf(e, 0) {
						e = math.MaxFloat64
					}
					if e > maxErr {
						maxErr = e
					}
				}
				out[p] = maxErr
			}
		}
	})
}

// benchWords quantizes coeffs the way EncodeLevel does and returns the
// level's unit and plane words.
func benchWords(b *testing.B, coeffs []float64, planes int) (float64, []uint64) {
	enc, err := EncodeLevel(coeffs, planes, Negabinary, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	unit := enc.unitSize()
	enc.Release()
	words := make([]uint64, len(coeffs))
	quantizeRange(coeffs, words, unit, 1<<(planes-2), planes, Negabinary, 0, len(coeffs))
	return unit, words
}

func planeDepthName(b int) string {
	return fmt.Sprintf("b=%d", b)
}
