package bitplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/cpufeat"
)

// planePatterns fill a level's plane bytes: the kernels only permute bits,
// so the patterns aim at lane placement (all-ones, alternating) and at
// single stray bits (sparse) rather than at coefficient values.
var planePatterns = []struct {
	name string
	fill func(rng *rand.Rand, k int, plane []byte)
}{
	{"random", func(rng *rand.Rand, _ int, plane []byte) { rng.Read(plane) }},
	{"ones", func(_ *rand.Rand, _ int, plane []byte) {
		for i := range plane {
			plane[i] = 0xFF
		}
	}},
	{"alternating", func(_ *rand.Rand, k int, plane []byte) {
		for i := range plane {
			plane[i] = 0x55 << uint((i+k)&1)
		}
	}},
	{"sparse", func(rng *rand.Rand, _ int, plane []byte) {
		clear(plane)
		for j := 0; j < len(plane)/16+1 && len(plane) > 0; j++ {
			plane[rng.Intn(len(plane))] |= 1 << uint(rng.Intn(8))
		}
	}},
}

// patternLevel builds an n-coefficient level of the given plane count
// straight from plane bytes, bits past n left clear as an encoder leaves
// them.
func patternLevel(rng *rand.Rand, n, planes, pattern int) *LevelEncoding {
	e := &LevelEncoding{N: n, Planes: planes, Bits: make([][]byte, planes)}
	for k := range e.Bits {
		e.Bits[k] = make([]byte, (n+7)/8)
		planePatterns[pattern].fill(rng, k, e.Bits[k])
		if n%8 != 0 {
			e.Bits[k][n/8] &= 1<<uint(n%8) - 1
		}
	}
	return e
}

// wordKernel32 is the signature every 32-bit plane→word kernel shares.
type wordKernel32 = func(bits [][]byte, n int, dst []uint32, b, planes, g0, g1 int)

// kernelWords runs one 32-bit word kernel over every group of e at prefix
// b, into a buffer whose words start as garbage.
func kernelWords(kernel wordKernel32, e *LevelEncoding, b int) []uint32 {
	dst := make([]uint32, e.N)
	for i := range dst {
		dst[i] = 0xDEADBEEF
	}
	kernel(e.Bits, e.N, dst, b, e.Planes, 0, (e.N+63)/64)
	return dst
}

// wordKernels are the 32-bit kernels that serve a prefix b on this CPU.
func wordKernels(b int) map[string]wordKernel32 {
	ks := map[string]wordKernel32{
		"half": wordsHalf,
	}
	if b <= 8 {
		ks["small"] = wordsSmall[uint32]
	}
	if cpufeat.AVX2 && b > 0 {
		ks["avx2"] = wordsAVX2
	}
	return ks
}

// checkKernelWords fails the test at the first word of got that differs
// from the same word of want under mask.
func checkKernelWords(t *testing.T, label string, got []uint32, want []uint64, mask uint64) {
	t.Helper()
	for i, x := range want {
		if uint64(got[i]) != x&mask {
			t.Fatalf("%s i=%d: word %#x, want %#x", label, i, got[i], x&mask)
		}
	}
}

// TestWordKernelsMatchScalar holds every 32-bit plane→word kernel — the
// AVX2 one where the CPU has it, wordsHalf and wordsSmall everywhere — to
// wordsScalar on identical planes: every plane count of 1–32, every
// prefix, group-edge lengths and the finest level of a 129³ field.
func TestWordKernelsMatchScalar(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Log("no AVX2: checking the portable kernels only")
	}
	rng := rand.New(rand.NewSource(36))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 200} {
		for planes := 1; planes <= 32; planes++ {
			for pat := range planePatterns {
				e := patternLevel(rng, n, planes, pat)
				// wordsScalar(e, b) is wordsScalar(e, planes) masked to
				// the prefix: plane k < b sets bit planes-1-k in both.
				full := wordsScalar(e, planes)
				for b := 0; b <= planes; b++ {
					mask := prefixMask(b, planes)
					for name, kernel := range wordKernels(b) {
						label := fmt.Sprintf("%s n=%d planes=%d %s b=%d", name, n, planes, planePatterns[pat].name, b)
						checkKernelWords(t, label, kernelWords(kernel, e, b), full, mask)
					}
				}
			}
		}
	}

	// The finest 129³ level on random planes: every plane count and prefix
	// through the dispatch TransposeWords takes, and the Go kernels at the
	// full prefix. A P-plane level here is the first P planes of one
	// 32-plane level, so its words are the 32-plane words shifted down by
	// 32-P. The race detector slows the comparisons tenfold, so under it
	// three plane counts are checked.
	n := finest129N
	e32 := patternLevel(rng, n, 32, 0)
	full32 := wordsScalar(e32, 32)
	full := make([]uint64, n)
	var w Words
	for planes := 1; planes <= 32; planes++ {
		if raceEnabled && planes != 9 && planes != 20 && planes != 32 {
			continue
		}
		e := &LevelEncoding{N: n, Planes: planes, Bits: e32.Bits[:planes]}
		for i, x := range full32 {
			full[i] = x >> uint(32-planes)
		}
		for b := 0; b <= planes; b++ {
			e.TransposeWords(b, &w, 1)
			checkKernelWords(t, fmt.Sprintf("TransposeWords n=%d planes=%d b=%d", n, planes, b), w.W32, full, prefixMask(b, planes))
		}
		for name, kernel := range wordKernels(planes) {
			checkKernelWords(t, fmt.Sprintf("%s n=%d planes=%d b=%d", name, n, planes, planes), kernelWords(kernel, e, planes), full, ^uint64(0))
		}
	}
}

// FuzzTransposeWords drives TransposeWords, over any worker split, and
// every 32-bit kernel with planes cut from arbitrary bytes, against
// wordsScalar.
func FuzzTransposeWords(f *testing.F) {
	f.Add([]byte{0xFF}, uint16(64), uint8(32), uint8(32), uint8(1))
	f.Add([]byte{0x55, 0xAA, 0x01}, uint16(65), uint8(20), uint8(9), uint8(2))
	f.Add([]byte{0x80, 0, 0, 0, 0, 0, 0, 0, 3}, uint16(1000), uint8(9), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16, planes8, b8, workers8 uint8) {
		n, planes := int(n16)%4096, 1+int(planes8)%32
		b, workers := int(b8)%(planes+1), 1+int(workers8)%4
		e := &LevelEncoding{N: n, Planes: planes, Bits: make([][]byte, planes)}
		for k := range e.Bits {
			e.Bits[k] = make([]byte, (n+7)/8)
			for i := range e.Bits[k] {
				if len(data) > 0 {
					e.Bits[k][i] = data[(k*len(e.Bits[k])+i)%len(data)] ^ byte(k*7+i)
				}
			}
		}
		want := wordsScalar(e, b)
		var w Words
		e.TransposeWords(b, &w, workers)
		label := fmt.Sprintf("TransposeWords n=%d planes=%d b=%d workers=%d", n, planes, b, workers)
		checkKernelWords(t, label, w.W32, want, ^uint64(0))
		for name, kernel := range wordKernels(b) {
			label := fmt.Sprintf("%s n=%d planes=%d b=%d", name, n, planes, b)
			checkKernelWords(t, label, kernelWords(kernel, e, b), want, ^uint64(0))
		}
	})
}

// runDecoder is the signature of one way to decode a run of words.
type runDecoder[W uint32 | uint64] func(dst []float64, stride int, ws []W, mask uint64, unit float64)

// decodePaths32 are the ways a run of a level of at most 32 planes decodes
// on this CPU: the Go loop everywhere, and decodeRun32's AVX2 kernel where
// the CPU has it.
func decodePaths32() map[string]runDecoder[uint32] {
	ps := map[string]runDecoder[uint32]{"go": decodeRunGo[uint32]}
	if cpufeat.AVX2 {
		ps["avx2"] = decodeRun32
	}
	return ps
}

// guardBits fills every element a decode must not write.
const guardBits = 0x7FF8DEADBEEF0001

// checkRun decodes ws at the given stride into a guarded buffer — three
// guard elements before and after the run, and the stride−1 elements
// between its nodes — and fails the test unless node j holds
// float64(DecodeNegabinary(ws[j] & mask))·unit bit for bit and every guard
// element is untouched.
func checkRun[W uint32 | uint64](t *testing.T, label string, decode runDecoder[W], ws []W, stride int, mask uint64, unit float64) {
	t.Helper()
	const guard = 3
	span := 0
	if len(ws) > 0 {
		span = (len(ws)-1)*stride + 1
	}
	buf := make([]float64, span+2*guard)
	for i := range buf {
		buf[i] = math.Float64frombits(guardBits)
	}
	decode(buf[guard:guard+span], stride, ws, mask, unit)
	next := guard
	for i, v := range buf {
		want := uint64(guardBits)
		if i == next && i < guard+span {
			j := (i - guard) / stride
			want = math.Float64bits(float64(DecodeNegabinary(uint64(ws[j])&mask)) * unit)
			next += stride
		}
		if got := math.Float64bits(v); got != want {
			t.Fatalf("%s: element %d of %d (run of %d at stride %d from %d) = %#x, want %#x", label, i, len(buf), len(ws), stride, guard, got, want)
		}
	}
}

// decodeWordPatterns fill a run's words: the all-zero and all-one words,
// 0xAAAAAAAA (the most negative 32-plane value, −2,863,311,530, beyond
// int32), 0x55555555 (the most positive) and random words.
var decodeWordPatterns = []struct {
	name string
	word func(rng *rand.Rand) uint64
}{
	{"zero", func(*rand.Rand) uint64 { return 0 }},
	{"ones", func(*rand.Rand) uint64 { return ^uint64(0) }},
	{"0xAA", func(*rand.Rand) uint64 { return 0xAAAAAAAAAAAAAAAA }},
	{"0x55", func(*rand.Rand) uint64 { return 0x5555555555555555 }},
	{"random", func(rng *rand.Rand) uint64 { return rng.Uint64() }},
}

// decodeUnits are dequantization units at the ends of the float range: a
// product of a 32-bit value with them overflows, underflows to a subnormal,
// or starts subnormal.
var decodeUnits = []float64{math.Ldexp(1, 1000), math.Ldexp(1, -1000), math.Ldexp(1, -1060), 0x1p-1074, 1}

// patternWords returns n words of a pattern cut to W.
func patternWords[W uint32 | uint64](rng *rand.Rand, pattern, n int) []W {
	ws := make([]W, n)
	for i := range ws {
		ws[i] = W(decodeWordPatterns[pattern].word(rng))
	}
	return ws
}

// TestDecodeKernelsMatchScalar holds every word→value decode — the AVX2
// kernel where the CPU has it and the Go loop everywhere — to the scalar
// definition float64(DecodeNegabinary(w & mask))·unit, bit for bit, with
// the guard elements around every strided write untouched: every prefix b
// of every plane count 1–32 on each word pattern and unit; strides 1–16 at
// lengths 0–33 and 129 (every tail of the four-word steps); 64 Ki + 13
// words, past one kernel call's chunk; and the Go loop on 33-, 59- and
// 60-plane words.
func TestDecodeKernelsMatchScalar(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Log("no AVX2: checking the Go loop only")
	}
	rng := rand.New(rand.NewSource(39))
	strides := []int{1, 2, 4, 8, 16}
	for planes := 1; planes <= 32; planes++ {
		for b := 1; b <= planes; b++ {
			mask := prefixMask(b, planes)
			for pat := range decodeWordPatterns {
				ws := patternWords[uint32](rng, pat, 37)
				for _, unit := range decodeUnits {
					for name, decode := range decodePaths32() {
						for _, stride := range []int{1, 3} {
							label := fmt.Sprintf("%s planes=%d b=%d %s unit=%g stride=%d", name, planes, b, decodeWordPatterns[pat].name, unit, stride)
							checkRun(t, label, decode, ws, stride, mask, unit)
						}
					}
				}
			}
		}
	}
	lengths := []int{129}
	for n := 0; n <= 33; n++ {
		lengths = append(lengths, n)
	}
	for _, pb := range [][2]int{{32, 32}, {32, 1}, {20, 9}, {1, 1}} {
		mask := prefixMask(pb[1], pb[0])
		for _, n := range lengths {
			for pat := range decodeWordPatterns {
				ws := patternWords[uint32](rng, pat, n)
				for _, unit := range decodeUnits {
					for name, decode := range decodePaths32() {
						for _, stride := range strides {
							label := fmt.Sprintf("%s planes=%d b=%d n=%d %s unit=%g", name, pb[0], pb[1], n, decodeWordPatterns[pat].name, unit)
							checkRun(t, label, decode, ws, stride, mask, unit)
						}
					}
				}
			}
		}
	}
	long := patternWords[uint32](rng, len(decodeWordPatterns)-1, decodeChunk+13)
	for name, decode := range decodePaths32() {
		for _, stride := range strides {
			checkRun(t, fmt.Sprintf("%s n=%d", name, len(long)), decode, long, stride, prefixMask(32, 32), math.Ldexp(1, -1000))
		}
	}
	for _, planes := range []int{33, 59, 60} {
		for b := 1; b <= planes; b++ {
			mask := prefixMask(b, planes)
			for pat := range decodeWordPatterns {
				ws := patternWords[uint64](rng, pat, 37)
				for _, unit := range decodeUnits {
					for _, stride := range strides {
						label := fmt.Sprintf("go planes=%d b=%d %s unit=%g stride=%d", planes, b, decodeWordPatterns[pat].name, unit, stride)
						checkRun(t, label, decodeRunGo[uint64], ws, stride, mask, unit)
					}
				}
			}
		}
	}
}

// FuzzDecodeWords drives every word→value decode with words cut from
// arbitrary bytes, at any plane count (32-bit words up to 32 planes, 64-bit
// above), prefix, stride, length and power-of-two unit, against the scalar
// definition, guard elements included.
func FuzzDecodeWords(f *testing.F) {
	f.Add([]byte{0xAA, 0xAA, 0xAA, 0xAA}, uint8(32), uint8(32), uint8(1), uint16(5), int16(-1000))
	f.Add([]byte{0xFF, 0x00, 0x55}, uint8(20), uint8(9), uint8(2), uint16(129), int16(1000))
	f.Add([]byte{0x01, 0x80}, uint8(60), uint8(33), uint8(16), uint16(31), int16(-1074))
	f.Fuzz(func(t *testing.T, data []byte, planes8, b8, stride8 uint8, n16 uint16, exp int16) {
		planes := 1 + int(planes8)%60
		b := 1 + int(b8)%planes
		stride := 1 + int(stride8)%16
		n := int(n16) % 4096
		unit := math.Ldexp(1, int(exp)%1100)
		mask := prefixMask(b, planes)
		word := func(i int) uint64 {
			var x uint64
			for k := 0; k < 8 && len(data) > 0; k++ {
				x |= uint64(data[(8*i+k)%len(data)]^byte(i)) << (8 * k)
			}
			return x
		}
		label := fmt.Sprintf("planes=%d b=%d stride=%d n=%d unit=%g", planes, b, stride, n, unit)
		if planes > 32 {
			ws := make([]uint64, n)
			for i := range ws {
				ws[i] = word(i)
			}
			checkRun(t, "go "+label, decodeRunGo[uint64], ws, stride, mask, unit)
			return
		}
		ws := make([]uint32, n)
		for i := range ws {
			ws[i] = uint32(word(i))
		}
		for name, decode := range decodePaths32() {
			checkRun(t, name+" "+label, decode, ws, stride, mask, unit)
		}
	})
}
