package bitplane

import (
	"fmt"
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
