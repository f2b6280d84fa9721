package bitplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/bufpool"
	"pmgard/internal/interleave"
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
		enc, err := EncodeLevel(coeffs, 32, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		enc.Release()
	}
}

// BenchmarkEncodePaths measures the single-thread encode of a level the
// size and magnitude profile of the finest 129³ level on each encode path
// this CPU has: the Go loops, and the AVX2 quantize, slice and fold where
// the CPU has them.
func BenchmarkEncodePaths(b *testing.B) {
	coeffs := heavyTailedCoeffs(finest129N)
	for _, p := range encodePaths() {
		b.Run(p.name, func(b *testing.B) {
			defer func(was bool) { encodeAVX2 = was }(encodeAVX2)
			encodeAVX2 = p.avx2
			b.SetBytes(finest129N * 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				enc, err := EncodeLevel(coeffs, 32, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				enc.Release()
			}
		})
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
		if _, err := encodeLevelModeScalar(coeffs, 32, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodePartial measures word-parallel partial decodes —
// TransposeWords, then Decode in coefficient order — at several prefix
// depths, reusing the words and the destination so the steady-state path
// is allocation-free, and the deepest prefix at the size of the finest 129³
// level. On AVX2 hosts the transpose takes wordsAVX2 at every b ≥ 1;
// elsewhere 8×8 tiles serve b ≤ 8 and the half-width transpose the deeper
// prefixes.
func BenchmarkDecodePartial(b *testing.B) {
	coeffs := benchCoeffs(benchN)
	enc, err := EncodeLevel(coeffs, 32, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer enc.Release()
	var w Words
	dst := make([]float64, benchN)
	for _, depth := range []int{4, 8, 12, 16, 20, 28, 32} {
		b.Run(planeDepthName(depth), func(b *testing.B) {
			b.SetBytes(benchN * 8)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc.TransposeWords(depth, &w, 1)
				decodeStream(enc, &w, depth, dst, 1)
			}
		})
	}
	b.Run("finest129", func(b *testing.B) {
		enc, err := EncodeLevel(heavyTailedCoeffs(finest129N), 32, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer enc.Release()
		var w Words
		enc.TransposeWords(32, &w, 1)
		dst := make([]float64, finest129N)
		b.SetBytes(finest129N * 8)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			enc.TransposeWords(32, &w, 1)
			decodeStream(enc, &w, 32, dst, 1)
		}
	})
}

// BenchmarkDecodePartialScalarRef measures the scalar reference decode at
// the same prefix depths.
func BenchmarkDecodePartialScalarRef(b *testing.B) {
	coeffs := benchCoeffs(benchN)
	enc, err := EncodeLevel(coeffs, 32, 1, nil)
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
			foldLevel(coeffs, words, unit, planes, out)
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
			pairs = foldLevel(coeffs, words, unit, planes, out)
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
					dec := float64(float64(DecodeNegabinary(w&mask)) * unit)
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
	enc, err := EncodeLevel(coeffs, planes, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	unit := enc.unitSize()
	enc.Release()
	words := make([]uint64, len(coeffs))
	quantize(coeffs, words, unit, 1<<(planes-2))
	return unit, words
}

// foldLevel folds a whole nega-binary level into out (planes+1 entries) a
// block at a time, the error-matrix share of the encoder's fused pass, and
// returns the pairs it folded one by one.
func foldLevel(coeffs []float64, words []uint64, unit float64, planes int, out []float64) (pairs int64) {
	sw, sc := bufpool.Uint64s(foldBlock), bufpool.Float64s(foldBlock)
	var acc [61]float64
	for lo := 0; lo < len(coeffs); lo += foldBlock {
		hi := min(lo+foldBlock, len(coeffs))
		pairs += foldErrors(coeffs[lo:hi], words[lo:hi], sw, sc, unit, planes, &acc)
	}
	copy(out, acc[:planes+1])
	bufpool.PutFloat64s(sc)
	bufpool.PutUint64s(sw)
	return pairs
}

func planeDepthName(b int) string {
	return fmt.Sprintf("b=%d", b)
}

// BenchmarkWords splits a reconstruction's decode the way a session runs
// it: transposing the finest 129³ level's planes into words at b = 32 (what
// a cached snapshot saves), and decoding the words of all five levels of a
// 129³ field, at prefixes b = 30, 28, 25, 24, 21, to their grid nodes in
// one row-major pass over the plan's run schedule.
func BenchmarkWords(b *testing.B) {
	enc, err := EncodeLevel(heavyTailedCoeffs(finest129N), 32, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer enc.Release()
	var w Words
	b.Run("transpose/finest129", func(b *testing.B) {
		b.SetBytes(finest129N * 8)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc.TransposeWords(32, &w, 1)
		}
	})
	dims := []int{129, 129, 129}
	plan, err := interleave.NewPlan(dims, 5)
	if err != nil {
		b.Fatal(err)
	}
	prefixes := []int{30, 28, 25, 24, 21}
	levels := make([]LevelWords, len(prefixes))
	for l, size := range plan.LevelSizes() {
		e, err := EncodeLevel(heavyTailedCoeffs(size), 32, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer e.Release()
		levels[l] = LevelWords{Enc: e, Words: new(Words), B: prefixes[l]}
		e.TransposeWords(prefixes[l], levels[l].Words, 1)
	}
	field := make([]float64, 129*129*129)
	b.Run("decode/field129", func(b *testing.B) {
		b.SetBytes(int64(8 * len(field)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Decode(levels, plan.Runs(), field, 1, nil, nil)
		}
	})
}
