package decompose

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/grid"
)

// This file retains the line-at-a-time transform verbatim — every pass, on
// every axis, one strided 1-D line after another, single-threaded — as the
// reference the row-innermost pass driver must match bit for bit. It shares
// no code with the driver: the four kernels and the line enumeration below
// are private copies.

func refForward(t *grid.Tensor, opt Options) {
	for s := 0; s < opt.Levels-1; s++ {
		for axis := 0; axis < t.NDim(); axis++ {
			refForEachLine(t, 1<<s, axis, func(base, stride, count int) {
				refPredictForward(t.Data(), base, stride, count)
				if opt.Update {
					refUpdateForward(t.Data(), base, stride, count, opt.UpdateWeight)
				}
			})
		}
	}
}

// refInverse undoes refForward down to refinement step stop.
func refInverse(t *grid.Tensor, opt Options, stop int) {
	for s := opt.Levels - 2; s >= stop; s-- {
		for axis := t.NDim() - 1; axis >= 0; axis-- {
			refForEachLine(t, 1<<s, axis, func(base, stride, count int) {
				if opt.Update {
					refUpdateInverse(t.Data(), base, stride, count, opt.UpdateWeight)
				}
				refPredictInverse(t.Data(), base, stride, count)
			})
		}
	}
}

// refForEachLine invokes fn for every 1-D line of the step-h active grid
// along axis: base is the flat offset of the line's first active node,
// stride the flat distance between consecutive active nodes, count their
// number. Lines with fewer than two active nodes are skipped.
func refForEachLine(t *grid.Tensor, h, axis int, fn func(base, stride, count int)) {
	dims := t.Dims()
	rank := len(dims)
	counts := make([]int, rank)
	flatStride := make([]int, rank)
	s := 1
	for d := rank - 1; d >= 0; d-- {
		flatStride[d] = s
		s *= dims[d]
	}
	for d := 0; d < rank; d++ {
		counts[d] = (dims[d]-1)/h + 1
	}
	if counts[axis] < 2 {
		return
	}
	pos := make([]int, rank)
	for {
		base := 0
		for d := 0; d < rank; d++ {
			if d != axis {
				base += pos[d] * h * flatStride[d]
			}
		}
		fn(base, h*flatStride[axis], counts[axis])
		d := rank - 1
		for ; d >= 0; d-- {
			if d == axis {
				continue
			}
			pos[d]++
			if pos[d] < counts[d] {
				break
			}
			pos[d] = 0
		}
		if d < 0 {
			return
		}
	}
}

func refPredictForward(data []float64, base, stride, count int) {
	for j := 1; j < count; j += 2 {
		var pred float64
		if j+1 < count {
			pred = 0.5 * (data[base+(j-1)*stride] + data[base+(j+1)*stride])
		} else {
			pred = data[base+(j-1)*stride]
		}
		data[base+j*stride] -= pred
	}
}

func refPredictInverse(data []float64, base, stride, count int) {
	for j := 1; j < count; j += 2 {
		var pred float64
		if j+1 < count {
			pred = 0.5 * (data[base+(j-1)*stride] + data[base+(j+1)*stride])
		} else {
			pred = data[base+(j-1)*stride]
		}
		data[base+j*stride] += pred
	}
}

func refUpdateForward(data []float64, base, stride, count int, w float64) {
	for j := 0; j < count; j += 2 {
		var sum float64
		if j-1 >= 0 {
			sum += data[base+(j-1)*stride]
		}
		if j+1 < count {
			sum += data[base+(j+1)*stride]
		}
		data[base+j*stride] += w * sum
	}
}

func refUpdateInverse(data []float64, base, stride, count int, w float64) {
	for j := 0; j < count; j += 2 {
		var sum float64
		if j-1 >= 0 {
			sum += data[base+(j-1)*stride]
		}
		if j+1 < count {
			sum += data[base+(j+1)*stride]
		}
		data[base+j*stride] -= w * sum
	}
}

// refRecomposeLevel is RecomposeLevel over the reference inverse: inject the
// kept levels, invert down to their step, read off every step-th node.
func refRecomposeLevel(d *Decomposition, upTo int) *grid.Tensor {
	work := grid.New(d.Dims()...)
	for l := 0; l <= upTo; l++ {
		d.plan.Inject(work.Data(), l, d.coeffs[l])
	}
	stop := d.opt.Levels - 1 - upTo
	refInverse(work, d.opt, stop)
	outDims := make([]int, work.NDim())
	for i, n := range work.Dims() {
		outDims[i] = (n-1)>>stop + 1
	}
	out := grid.New(outDims...)
	idx, src := make([]int, len(outDims)), make([]int, len(outDims))
	for flat := range out.Data() {
		for d, rem := len(outDims)-1, flat; d >= 0; d-- {
			idx[d] = rem % outDims[d]
			src[d] = idx[d] << stop
			rem /= outDims[d]
		}
		out.Set(work.At(src...), idx...)
	}
	return out
}

// awkward are the values whose arithmetic distinguishes "the same operations
// on the same operands" from anything merely equal in value.
var awkward = []float64{
	math.NaN(), math.Float64frombits(0xfff8_0000_0000_beef), // NaNs of both signs, one with a payload
	math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64,
}

// liftInput fills a tensor of the given shape: "normal" with Gaussian
// samples, "salted" with one node in eight replaced by an awkward value,
// "awkward" with nothing else, and "zeros" with zeros of random sign (the
// case where the update's leading 0 + x is visible in the result).
func liftInput(rng *rand.Rand, kind string, dims []int) *grid.Tensor {
	t := randomTensor(rng, dims...)
	for i := range t.Data() {
		switch {
		case kind == "zeros":
			t.Data()[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		case kind == "awkward", kind == "salted" && rng.Intn(8) == 0:
			t.Data()[i] = awkward[rng.Intn(len(awkward))]
		}
	}
	return t
}

// requireSameBits demands identical bit patterns, with one exemption: where
// the reference holds a NaN the result must hold a NaN, of any payload. When
// two NaNs meet in one addition the hardware keeps the first operand's
// payload, and the compiler orders the operands of a commutative add as it
// likes at each site — so which NaN survives is not a property of the source,
// in the reference or the driver. Where NaNs appear, and every other bit
// (signed zeros, denormals, infinities, roundings), is.
func requireSameBits(t *testing.T, what string, want, got *grid.Tensor) {
	t.Helper()
	if fmt.Sprint(want.Dims()) != fmt.Sprint(got.Dims()) {
		t.Fatalf("%s: dims %v, want %v", what, got.Dims(), want.Dims())
	}
	for i, w := range want.Data() {
		g := got.Data()[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%s: node %d = %x (%g), want %x (%g)", what, i, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// TestPassesMatchScalarReference drives forward, inverse and RecomposeLevel
// through the pass driver at every worker count and requires the reference's
// bits: ranks 1–4 (rank 1 has no non-last axis), odd, even and prime
// extents, the update on and off and at both ends of its weight range,
// hierarchies from one level to deeper than the grid.
func TestPassesMatchScalarReference(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {31}, {64},
		{9, 30}, {2, 2}, {33, 32}, {1, 17}, {17, 1},
		{5, 6, 7}, {17, 17, 17}, {8, 13, 3}, {3, 1, 9},
		{3, 4, 5, 6}, {5, 5, 5, 5},
	}
	options := []Options{
		{Update: false},
		{Update: true, UpdateWeight: 0},
		{Update: true, UpdateWeight: 0.25},
		{Update: true, UpdateWeight: 0.5},
	}
	rng := rand.New(rand.NewSource(19))
	for _, dims := range shapes {
		for _, kind := range []string{"normal", "salted", "awkward", "zeros"} {
			for _, opt := range options {
				for opt.Levels = 1; opt.Levels <= 6; opt.Levels++ {
					in := liftInput(rng, kind, dims)
					wantFwd := in.Clone()
					refForward(wantFwd, opt)
					wantInv := wantFwd.Clone()
					refInverse(wantInv, opt, 0)
					for _, workers := range []int{1, 2, 4, 8} {
						name := fmt.Sprintf("dims %v %s %+v workers %d", dims, kind, opt, workers)
						got := in.Clone()
						forward(got, opt, workers)
						requireSameBits(t, name+" forward", wantFwd, got)
						inverse(got, opt, workers, 0)
						requireSameBits(t, name+" inverse", wantInv, got)

						d, err := Decompose(in, opt, workers, nil)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						for upTo := 0; upTo < opt.Levels; upTo++ {
							coarse, err := d.RecomposeLevel(upTo)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							requireSameBits(t, fmt.Sprintf("%s RecomposeLevel(%d)", name, upTo), refRecomposeLevel(d, upTo), coarse)
						}
					}
				}
			}
		}
	}
}
