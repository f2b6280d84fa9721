package bitplane

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/cpufeat"
)

// encodeProfiles are the levels the encode kernels are checked on: each
// fills n coefficients for a plane count.
var encodeProfiles = []struct {
	name string
	fill func(rng *rand.Rand, n, planes int) []float64
}{
	{"random", func(rng *rand.Rand, n, _ int) []float64 { return randomCoeffs(rng, n, false) }},
	// NaN, ±Inf and denormals salted through ordinary values.
	{"adversarial", func(rng *rand.Rand, n, _ int) []float64 { return randomCoeffs(rng, n, true) }},
	// Every magnitude underflows the quantization unit.
	{"denormal-only", func(rng *rand.Rand, n, _ int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = math.Ldexp(1-2*rng.Float64(), -1060)
		}
		return c
	}},
	// Magnitudes near MaxFloat64 with infinities: the exponent caps at
	// 1023, values saturate to ±limit, and short prefixes dequantize past
	// the float range, so the fold takes its non-safe blocks.
	{"saturating", func(rng *rand.Rand, n, _ int) []float64 {
		c := make([]float64, n)
		for i := range c {
			c[i] = math.MaxFloat64 * (1 - 2*rng.Float64())
			if rng.Intn(9) == 0 {
				c[i] = math.Inf(1 - 2*rng.Intn(2))
			}
		}
		return c
	}},
	// Quantized values exactly halfway between two units, and one ulp to
	// either side, where rounding half away from zero decides the word.
	{"ties", func(rng *rand.Rand, n, planes int) []float64 {
		c := make([]float64, n)
		e := rng.Intn(40) - 20
		c[0] = math.Ldexp(1, e) // fixes the exponent, so the unit
		unit := math.Ldexp(1, e-(planes-2))
		top := max(int64(1)<<uint(max(planes-2, 0)), 1)
		for i := 1; i < n; i++ {
			v := (float64(rng.Int63n(top)) + 0.5) * unit
			switch rng.Intn(3) {
			case 1:
				v = math.Nextafter(v, 0)
			case 2:
				v = math.Nextafter(v, math.Inf(1))
			}
			if rng.Intn(2) == 0 {
				v = -v
			}
			c[i] = v
		}
		return c
	}},
}

// TestEncodeKernelsMatchScalar holds the fused encode pass — the AVX2
// quantize, slice and fold where the CPU has them, and with encodeAVX2
// cleared the Go loops — to the scalar reference, planes and ErrMatrix bit
// for bit, at every plane count 1–60 (levels above 32 planes take the Go
// loops on both paths) and at lengths whose tails are not whole 64-word
// groups or 4-word quads, at one worker and three.
func TestEncodeKernelsMatchScalar(t *testing.T) {
	forEncodePaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(46))
		for _, p := range encodeProfiles {
			for planes := 1; planes <= 60; planes++ {
				n := 64*(1+rng.Intn(4)) + []int{0, 1, 3, 31, 33, 63}[planes%6]
				coeffs := p.fill(rng, n, planes)
				want, _ := encodeLevelModeScalar(coeffs, planes, false)
				for _, workers := range []int{1, 3} {
					got, err := EncodeLevel(coeffs, planes, workers, nil)
					if err != nil {
						t.Fatal(err)
					}
					compareEncodings(t, got, want, fmt.Sprintf("%s n=%d planes=%d workers=%d", p.name, n, planes, workers))
					got.Release()
				}
			}
		}
	})
}

// TestEncodeKernelsMatchGoLoops drives each AVX2 encode kernel on inputs
// wider than an encoder produces — any power-of-two unit, plane words of
// every pattern, masks of every prefix — against its Go loop: quantize's
// words, sliceGroups' plane bytes (into dirty buffers) and foldPlane's
// maximum, bit for bit.
func TestEncodeKernelsMatchGoLoops(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2: the Go loops are the only path")
	}
	defer func(was bool) { encodeAVX2 = was }(encodeAVX2)
	run := func(avx2 bool, f func()) {
		encodeAVX2 = avx2
		f()
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		n := rng.Intn(300)
		if trial%10 == 0 {
			n = foldBlock
		}
		planes := 1 + rng.Intn(32)
		limit := int64(1) << uint(planes-2)
		unit := math.Ldexp(1, rng.Intn(2100)-1080)
		// Coefficients as multiples of the unit: within and past ±limit (the
		// int64 conversion both loops share bounds |c/unit| below 2⁶³),
		// halfway between two units, and NaN, ±Inf and denormals.
		cs := randomCoeffs(rng, n, trial%2 == 0)
		for i, c := range cs {
			if math.IsNaN(c) || math.IsInf(c, 0) || c != 0 && math.Abs(c) < 0x1p-1022 {
				continue
			}
			x := math.Ldexp(rng.NormFloat64(), rng.Intn(planes+4))
			switch rng.Intn(4) {
			case 0:
				x = math.Round(x) + 0.5
			case 1:
				x = math.Ldexp(1-2*rng.Float64(), rng.Intn(63))
			}
			cs[i] = float64(x * unit)
		}
		label := fmt.Sprintf("n=%d planes=%d unit=%g", n, planes, unit)

		var goWords, kWords []uint64
		run(false, func() { goWords = make([]uint64, n); quantize(cs, goWords, unit, limit) })
		run(true, func() { kWords = make([]uint64, n); quantize(cs, kWords, unit, limit) })
		for i := range goWords {
			if goWords[i] != kWords[i] {
				t.Fatalf("%s: quantize word %d of %v: kernel %#x, Go %#x", label, i, cs[i], kWords[i], goWords[i])
			}
		}

		words := make([]uint64, n)
		for i := range words {
			words[i] = rng.Uint64() >> uint(64-planes)
			if rng.Intn(3) == 0 {
				words[i] = goWords[i]
			}
		}
		planeBytes := (n + 7) / 8
		groups := (n + 63) / 64
		slice := func(avx2 bool) [][]byte {
			bits := make([][]byte, planes)
			for k := range bits {
				bits[k] = make([]byte, planeBytes)
				rng.Read(bits[k])
			}
			run(avx2, func() { sliceGroups(words, bits, planes, planeBytes, 0, groups) })
			return bits
		}
		goBits, kBits := slice(false), slice(true)
		for k := range goBits {
			if string(goBits[k]) != string(kBits[k]) {
				t.Fatalf("%s: sliceGroups plane %d differs", label, k)
			}
		}

		fin := make([]float64, n)
		for i, c := range cs {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				c = 0
			}
			fin[i] = c
		}
		for b := 1; b <= planes; b++ {
			mask := prefixMask(b, planes)
			start := math.Abs(rng.NormFloat64()) * unit
			var goMax, kMax float64
			run(false, func() { goMax = foldPlane(words, fin, mask, unit, start, true) })
			run(true, func() { kMax = foldPlane(words, fin, mask, unit, start, true) })
			if math.Float64bits(goMax) != math.Float64bits(kMax) {
				t.Fatalf("%s b=%d: foldPlane kernel %v, Go %v", label, b, kMax, goMax)
			}
		}
	}
}

// FuzzEncodeKernels drives the fused encode pass with coefficients of
// arbitrary float64 bits — or, when tame is odd, the same bits with the
// exponent folded into ±20 binades, so that blocks fold on the safe path
// — and arbitrary plane counts, on every encode path this CPU has, against
// encodeLevelModeScalar on plane bytes and the Float64bits of every
// ErrMatrix entry.
func FuzzEncodeKernels(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}, uint16(65), uint8(31), uint8(1), uint8(1))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xEF, 0x7F, 1, 0, 0, 0, 0, 0, 0xF8, 0x7F}, uint16(200), uint8(7), uint8(2), uint8(0))
	f.Add([]byte{0x55, 0xAA, 0x01, 0x80, 0x33, 0x44, 0x10, 0xC0, 9}, uint16(4095), uint8(59), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16, planes8, workers8, tame uint8) {
		n, planes, workers := int(n16)%4096, 1+int(planes8)%60, 1+int(workers8)%4
		coeffs := make([]float64, n)
		if len(data) > 0 {
			for i := range coeffs {
				var bits uint64
				for j := 0; j < 8; j++ {
					bits |= uint64(data[(8*i+j)%len(data)]^byte(i*j)) << (8 * j)
				}
				if tame%2 == 1 {
					e := (bits >> 52 & 0x7FF) % 41
					bits = bits&^(0x7FF<<52) | (1003+e)<<52
				}
				coeffs[i] = math.Float64frombits(bits)
			}
		}
		want, _ := encodeLevelModeScalar(coeffs, planes, false)
		for _, p := range encodePaths() {
			func() {
				defer func(was bool) { encodeAVX2 = was }(encodeAVX2)
				encodeAVX2 = p.avx2
				got, err := EncodeLevel(coeffs, planes, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer got.Release()
				compareEncodings(t, got, want, fmt.Sprintf("%s n=%d planes=%d workers=%d", p.name, n, planes, workers))
			}()
		}
	})
}
