package decompose

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmgard/internal/cpufeat"
)

// rowCase is one h = 1 row lift: the step, its direction, whether the row
// has a right neighbour, and the update weight.
type rowCase struct {
	update, fwd, twoSided bool
	w                     float64
}

func (rc rowCase) String() string {
	step, dir, sides := "predict", "inverse", "one-sided"
	if rc.update {
		step = "update"
	}
	if rc.fwd {
		dir = "forward"
	}
	if rc.twoSided {
		sides = "two-sided"
	}
	return fmt.Sprintf("%s %s %s w=%g", step, dir, sides, rc.w)
}

// rowCases are every step, direction and neighbour count, the update at
// the weights 0, 0.25 and 0.5.
func rowCases() []rowCase {
	var cs []rowCase
	for _, fwd := range []bool{true, false} {
		for _, twoSided := range []bool{true, false} {
			cs = append(cs, rowCase{fwd: fwd, twoSided: twoSided})
			for _, w := range []float64{0, 0.25, 0.5} {
				cs = append(cs, rowCase{update: true, fwd: fwd, twoSided: twoSided, w: w})
			}
		}
	}
	return cs
}

// liftRow runs rc on a copy of c through predictRow1/updateRow1 — the AVX2
// kernel where the CPU has it — or, when portable, through the Go loops
// alone, and returns the lifted row. The copy sits before guard elements
// that the lift must leave alone.
func liftRow(t testing.TB, rc rowCase, c, a, b []float64, portable bool) []float64 {
	t.Helper()
	const guards = 9
	buf := append(slices.Clone(c), make([]float64, guards)...)
	for i := len(c); i < len(buf); i++ {
		buf[i] = float64(i)
	}
	out := buf[:len(c)]
	if !rc.twoSided {
		b = nil
	}
	switch {
	case rc.update && portable:
		updateRow1Go(out, a, b, rc.w, rc.fwd)
	case rc.update:
		updateRow1(out, a, b, rc.w, rc.fwd)
	case portable:
		predictRow1Go(out, a, b, rc.fwd)
	default:
		predictRow1(out, a, b, rc.fwd)
	}
	for i := len(c); i < len(buf); i++ {
		if buf[i] != float64(i) {
			t.Fatalf("%v width %d (portable %v): wrote element %d past the row", rc, len(c), portable, i)
		}
	}
	return out
}

// liftRowRef lifts each element of c on its own through the line-at-a-time
// reference kernels: element i is the node being lifted in a two-to-four
// node line built from a[i], c[i] and, when two-sided, b[i].
func liftRowRef(rc rowCase, c, a, b []float64) []float64 {
	out := make([]float64, len(c))
	var buf [4]float64
	for i := range c {
		var line []float64
		at := 1
		switch {
		case !rc.update && rc.twoSided:
			line = append(buf[:0], a[i], c[i], b[i])
		case !rc.update:
			line = append(buf[:0], a[i], c[i])
		case rc.twoSided:
			line, at = append(buf[:0], 0, a[i], c[i], b[i]), 2
		default:
			line, at = append(buf[:0], c[i], a[i]), 0
		}
		switch {
		case !rc.update && rc.fwd:
			refPredictForward(line, 0, 1, len(line))
		case !rc.update:
			refPredictInverse(line, 0, 1, len(line))
		case rc.fwd:
			refUpdateForward(line, 0, 1, len(line), rc.w)
		default:
			refUpdateInverse(line, 0, 1, len(line), rc.w)
		}
		out[i] = line[at]
	}
	return out
}

// checkRowBits fails the test at the first element of got whose bits differ
// from want's: a NaN must be where want has one, its payload aside.
func checkRowBits(t testing.TB, label string, got, want []float64) {
	t.Helper()
	for i, x := range want {
		y := got[i]
		if math.IsNaN(x) != math.IsNaN(y) || !math.IsNaN(x) && math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("%s: element %d is %v (%#016x), want %v (%#016x)", label, i, y, math.Float64bits(y), x, math.Float64bits(x))
		}
	}
}

// checkRowKernels holds the Go loops to the reference on rc and, on CPUs
// with AVX2, the dispatching row lift to the Go loops, bit for bit.
func checkRowKernels(t testing.TB, rc rowCase, c, a, b []float64) {
	t.Helper()
	label := fmt.Sprintf("%v width %d", rc, len(c))
	portable := liftRow(t, rc, c, a, b, true)
	checkRowBits(t, label+" Go loops vs reference", portable, liftRowRef(rc, c, a, b))
	if cpufeat.AVX2 {
		checkRowBits(t, label+" AVX2 vs Go loops", liftRow(t, rc, c, a, b, false), portable)
	}
}

// rowSpecials are the values a row kernel must carry exactly: signed
// zeros, infinities, NaN, the denormal range and the ends of the normal
// one.
var rowSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000FFFFFFFFFFFFF), -math.Float64frombits(0x0000000000012345),
	0x1p-1022, -0x1p-1022, math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5,
}

// randomRow returns n values, about one in four drawn from rowSpecials.
func randomRow(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		if rng.Intn(4) == 0 {
			x[i] = rowSpecials[rng.Intn(len(rowSpecials))]
		} else {
			x[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
		}
	}
	return x
}

// TestRowKernelsMatchGo holds the h = 1 row lifts — the AVX2 kernel and
// its Go tail where the CPU has AVX2 — to the portable Go loops, and those
// to the line-at-a-time reference, bit for bit: every width to 33 (the
// kernel's 8-element blocks and tails), widths about 128, a 129² slab, and
// one row past the kernel's 64 Ki-element chunk, on values that include
// −0, ±Inf, NaN and denormals.
func TestRowKernelsMatchGo(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Log("no AVX2: checking the portable loops only")
	}
	var widths []int
	for n := 0; n <= 33; n++ {
		widths = append(widths, n)
	}
	widths = append(widths, 127, 128, 129, 16640, 16641, 16642, 1<<16+13)
	rng := rand.New(rand.NewSource(37))
	for _, n := range widths {
		c, a, b := randomRow(rng, n), randomRow(rng, n), randomRow(rng, n)
		for _, rc := range rowCases() {
			checkRowKernels(t, rc, c, a, b)
		}
	}

	// Every triple of special values once: the sign of a zero result
	// turns on all three operands being signed zeros, which random rows
	// seldom draw.
	k := len(rowSpecials)
	c, a, b := make([]float64, k*k*k), make([]float64, k*k*k), make([]float64, k*k*k)
	for i := range c {
		c[i], a[i], b[i] = rowSpecials[i%k], rowSpecials[i/k%k], rowSpecials[i/(k*k)]
	}
	for _, rc := range rowCases() {
		checkRowKernels(t, rc, c, a, b)
	}
}

// FuzzLiftRows drives every row lift with rows cut from arbitrary bytes —
// any float64 bit pattern, NaN payloads included, eight bytes per element,
// the bytes repeating — and an arbitrary update weight, against the Go
// loops and the reference.
func FuzzLiftRows(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint16(9), uint8(5), 0.5)
	f.Add([]byte{0xFF, 0xF0, 0x7F, 1, 2, 3}, uint16(40), uint8(5), 0.25)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x7F, 1}, uint16(17), uint8(6), 0.0)
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16, op uint8, w float64) {
		n := int(n16) % 4096
		rows := make([][]float64, 3)
		var word [8]byte
		for r := range rows {
			rows[r] = make([]float64, n)
			for i := range rows[r] {
				for k := range word {
					if len(data) > 0 {
						word[k] = data[(8*(r*n+i)+k)%len(data)]
					}
				}
				rows[r][i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
			}
		}
		rc := rowCase{update: op&1 != 0, fwd: op&2 != 0, twoSided: op&4 != 0}
		if rc.update {
			rc.w = w
		}
		checkRowKernels(t, rc, rows[0], rows[1], rows[2])
	})
}
