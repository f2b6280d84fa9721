package decompose

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pmgard/internal/codec"
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

// lineCase is one four-line inverse lift: count active nodes per line,
// every h-th element, and the transform options.
type lineCase struct {
	count, h int
	opt      codec.Options
}

func (lc lineCase) String() string {
	return fmt.Sprintf("count %d h %d update %v w=%g", lc.count, lc.h, lc.opt.Update, lc.opt.UpdateWeight)
}

// lineGap is the number of guard elements after each line's last active
// node, so consecutive lines are (count−1)·h + 1 + lineGap elements apart.
const lineGap = 3

// lineLayout lays four lines of lc out in one buffer: line r's node j at
// r·rows + j·h, the nodes from vals (four lines of count), and every other
// element — the inactive nodes at h > 1, the guards between lines and
// after the last — a distinct value the lifts must leave alone.
func lineLayout(lc lineCase, vals []float64) (buf []float64, rows int) {
	rows = (lc.count-1)*lc.h + 1 + lineGap
	buf = make([]float64, 4*rows)
	for i := range buf {
		buf[i] = float64(-1 - i)
	}
	for r := 0; r < 4; r++ {
		for j := 0; j < lc.count; j++ {
			buf[r*rows+j*lc.h] = vals[r*lc.count+j]
		}
	}
	return buf, rows
}

// liftLines lifts the four lines of lc laid out from vals — by the
// reference kernels of scalar_ref_test.go, by the Go line one line at a
// time, or by the AVX2 kernel in one call — and returns the buffer, after
// requiring every element off the active nodes untouched.
func liftLines(t testing.TB, lc lineCase, vals []float64, by string) []float64 {
	t.Helper()
	buf, rows := lineLayout(lc, vals)
	switch by {
	case "AVX2":
		inverseLines4AVX2(buf, 0, rows, lc.count, lc.h, lc.opt)
	case "Go":
		lf := &lifter{data: buf, opt: lc.opt, h: lc.h}
		for r := 0; r < 4; r++ {
			lf.line(view{off: r * rows, n: []int{lc.count}, stride: []int{lc.h}})
		}
	default:
		for r := 0; r < 4; r++ {
			if lc.opt.Update {
				refUpdateInverse(buf, r*rows, lc.h, lc.count, lc.opt.UpdateWeight)
			}
			refPredictInverse(buf, r*rows, lc.h, lc.count)
		}
	}
	for i, x := range buf {
		if j := i % rows; j%lc.h == 0 && j/lc.h < lc.count {
			continue
		}
		if x != float64(-1-i) {
			t.Fatalf("%v by %s: wrote element %d off the active nodes", lc, by, i)
		}
	}
	return buf
}

// checkLineKernels holds the Go lines to the reference on lc and, on CPUs
// with AVX2, the four-line kernel to the Go lines, bit for bit.
func checkLineKernels(t testing.TB, lc lineCase, vals []float64) {
	t.Helper()
	goLines := liftLines(t, lc, vals, "Go")
	checkRowBits(t, fmt.Sprintf("%v Go lines vs reference", lc), goLines, liftLines(t, lc, vals, "reference"))
	if cpufeat.AVX2 {
		checkRowBits(t, fmt.Sprintf("%v AVX2 vs Go lines", lc), liftLines(t, lc, vals, "AVX2"), goLines)
	}
}

// lineOptions are the update off and on at the weights 0, 0.25 and 0.5.
func lineOptions() []codec.Options {
	opts := []codec.Options{{Update: false}}
	for _, w := range []float64{0, 0.25, 0.5} {
		opts = append(opts, codec.Options{Update: true, UpdateWeight: w})
	}
	return opts
}

// signedZeros returns n zeros of random sign: the lines where the update's
// leading 0 + left decides the sign of a result.
func signedZeros(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
	}
	return x
}

// TestLineKernelsMatchGo holds the four-line inverse kernel — AVX2, where
// the CPU has it — to the Go line kernels, and those to the reference
// kernels, bit for bit: counts 2–33 (the kernel's first node, its
// four-column blocks, its column walk and both tails), 127–129 and 1025,
// h ∈ {1, 2, 4, 8}, the update off and on at w ∈ {0, 0.25, 0.5}, on
// values that include −0, ±Inf, NaN and denormals, and on lines of signed
// zeros alone. Inactive nodes and the guards between and after the lines
// must stay untouched.
func TestLineKernelsMatchGo(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Log("no AVX2: checking the Go lines only")
	}
	var counts []int
	for n := 2; n <= 33; n++ {
		counts = append(counts, n)
	}
	counts = append(counts, 127, 128, 129, 1025)
	rng := rand.New(rand.NewSource(41))
	for _, n := range counts {
		for _, h := range []int{1, 2, 4, 8} {
			for _, opt := range lineOptions() {
				lc := lineCase{count: n, h: h, opt: opt}
				checkLineKernels(t, lc, randomRow(rng, 4*n))
				checkLineKernels(t, lc, signedZeros(rng, 4*n))
			}
		}
	}
}

// FuzzLiftLines drives the four-line inverse lift with lines cut from
// arbitrary bytes — any float64 bit pattern, eight bytes per node, the
// bytes repeating — at an arbitrary count, h ∈ {1, 2, 4, 8} and update
// weight, against the Go lines and the reference.
func FuzzLiftLines(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0x80}, uint16(9), uint8(0), 0.5, true)
	f.Add([]byte{0xFF, 0xF0, 0x7F, 1, 2, 3}, uint16(40), uint8(1), 0.25, true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xF0, 0x7F, 1}, uint16(17), uint8(3), 0.0, false)
	f.Fuzz(func(t *testing.T, data []byte, n16 uint16, h8 uint8, w float64, update bool) {
		lc := lineCase{count: 2 + int(n16)%1024, h: 1 << (h8 % 4), opt: codec.Options{Update: update}}
		if update {
			lc.opt.UpdateWeight = w
		}
		vals := make([]float64, 4*lc.count)
		var word [8]byte
		for i := range vals {
			for k := range word {
				if len(data) > 0 {
					word[k] = data[(8*i+k)%len(data)]
				}
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(word[:]))
		}
		checkLineKernels(t, lc, vals)
	})
}
