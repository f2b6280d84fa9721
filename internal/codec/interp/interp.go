// Package interp registers the "interp" progressive-codec backend: an
// IPComp/SZ3-style interpolation-based refactoring (Liu et al.,
// arXiv:2502.04093) behind the same ProgressiveCodec interface as the
// MGARD-style lifting backend.
//
// The transform shares the MGARD level structure (interleave.Plan assigns
// every grid node to one of L levels, level 0 being the coarsest grid) but
// predicts instead of lifting: a level-l node's coefficient is its residual
// against the multilinear interpolation of the surrounding coarser-grid
// nodes. Prediction is open-loop — the encoder predicts from the exact
// field values at the coarser nodes, not from their quantized
// reconstructions — which keeps Decompose a pure field→coefficients map
// (bit-identical for every worker count, independent of the plane budget)
// at the cost of a slightly looser residual floor.
//
// Error control: multilinear interpolation with boundary clamping is a
// convex combination, hence non-expansive in the max norm. A level-l node
// decoded from perturbed coarser values inherits at most their maximum
// error plus its own truncation error Err[l][b_l], so by induction the
// reconstruction error is bounded by Σ_l Err[l][b_l] — the amplification
// constant is exactly 1, naive and tight alike. This is the backend's
// structural advantage over the lifting scheme on smooth fields: no update
// step means no (1+2w)^rank amplification, so the planner's bound is sharp
// and fewer planes clear a given tolerance.
package interp

import (
	"fmt"

	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/interleave"
	"pmgard/internal/obs"
	"pmgard/internal/pool"
)

// ID is the backend identifier recorded in headers and cache keys.
const ID = "interp"

func init() { codec.Register(Codec{}) }

// Codec is the interpolation-based backend: open-loop multilinear
// prediction residuals per level, nega-binary bit-plane streams.
type Codec struct {
	codec.BitplaneCoder
}

// ID implements codec.ProgressiveCodec.
func (Codec) ID() string { return ID }

// validate checks the option subset the backend honors. Update fields are
// ignored (prediction has no lifting update), not rejected, so options
// roundtripped through a header never fail retroactively.
func validate(opts codec.Options) error {
	if opts.Levels < 1 || opts.Levels > 30 {
		return fmt.Errorf("interp: Levels %d out of range [1,30]", opts.Levels)
	}
	return nil
}

// Decompose implements codec.ProgressiveCodec: level-by-level open-loop
// interpolation residuals, coarsest first.
func (Codec) Decompose(t *grid.Tensor, opts codec.Options, workers int, o *obs.Obs) (codec.Decomposition, error) {
	if err := validate(opts); err != nil {
		return nil, err
	}
	plan, err := interleave.NewPlan(t.Dims(), opts.Levels)
	if err != nil {
		return nil, err
	}
	workers = pool.Clamp(workers)
	sp := o.Span("interp.decompose", nil)
	sp.SetAttr("levels", opts.Levels)
	sp.SetAttr("rank", t.NDim())
	defer sp.End()
	d := &decomposition{plan: plan, workers: workers, coeffs: make([][]float64, opts.Levels)}
	data := t.Data()
	// Level 0 stores the coarsest-grid values verbatim (zero prediction);
	// finer levels store residuals against interpolation from the exact
	// values of all coarser nodes. Each level's residuals depend only on
	// data, never on other residuals, so levels and chunks are independent.
	for l := 0; l < opts.Levels; l++ {
		ix := plan.Indices(l)
		cs := make([]float64, len(ix))
		d.coeffs[l] = cs
		if l == 0 {
			plan.Extract(data, 0, cs)
			continue
		}
		predictLevel(plan, data, l, cs, nil, workers)
	}
	if o != nil {
		o.Counter("interp.decompositions").Add(1)
		o.Counter("interp.nodes").Add(int64(len(data)))
	}
	return d, nil
}

// NewZero implements codec.ProgressiveCodec.
func (Codec) NewZero(dims []int, opts codec.Options, workers int) (codec.Decomposition, error) {
	if err := validate(opts); err != nil {
		return nil, err
	}
	plan, err := interleave.NewPlan(dims, opts.Levels)
	if err != nil {
		return nil, err
	}
	d := &decomposition{plan: plan, workers: pool.Clamp(workers), coeffs: make([][]float64, opts.Levels)}
	for l, n := range plan.LevelSizes() {
		d.coeffs[l] = make([]float64, n)
	}
	return d, nil
}

// NaiveAmplification implements codec.ProgressiveCodec: interpolation is
// max-norm non-expansive, so even the naive compounded bound is 1.
func (Codec) NaiveAmplification(codec.Options, int) float64 { return 1 }

// TightAmplification implements codec.ProgressiveCodec.
func (Codec) TightAmplification(codec.Options, int) float64 { return 1 }

// decomposition carries the per-level residual streams and the interleave
// plan that localizes them on the grid.
type decomposition struct {
	plan    *interleave.Plan
	coeffs  [][]float64
	workers int
}

// Levels implements codec.Decomposition.
func (d *decomposition) Levels() int { return len(d.coeffs) }

// Coeffs implements codec.Decomposition.
func (d *decomposition) Coeffs(l int) []float64 { return d.coeffs[l] }

// Recompose implements codec.Decomposition: scatter level 0, then add each
// finer level's residuals to the interpolation of the already-reconstructed
// coarser grid. The decoder predicts from decoded values where the encoder
// predicted from exact ones; the difference is what the Err matrix bounds.
func (d *decomposition) Recompose() *grid.Tensor {
	out := grid.New(d.plan.Dims()...)
	data := out.Data()
	d.plan.Inject(data, 0, d.coeffs[0])
	for l := 1; l < len(d.coeffs); l++ {
		predictLevel(d.plan, data, l, nil, d.coeffs[l], d.workers)
	}
	return out
}

// RecomposeLevel implements codec.Decomposition: decode levels 0..upTo and
// gather the stride-2^(Levels-1-upTo) sub-grid they span.
func (d *decomposition) RecomposeLevel(upTo int) (*grid.Tensor, error) {
	L := len(d.coeffs)
	if upTo < 0 || upTo >= L {
		return nil, fmt.Errorf("interp: RecomposeLevel upTo %d out of [0,%d)", upTo, L)
	}
	dims := d.plan.Dims()
	work := make([]float64, tensorLen(dims))
	d.plan.Inject(work, 0, d.coeffs[0])
	for l := 1; l <= upTo; l++ {
		predictLevel(d.plan, work, l, nil, d.coeffs[l], d.workers)
	}
	step := 1 << (L - 1 - upTo)
	outDims := make([]int, len(dims))
	for i, n := range dims {
		outDims[i] = (n-1)/step + 1
	}
	out := grid.New(outDims...)
	gatherStride(work, dims, step, out.Data(), outDims)
	return out, nil
}

// tensorLen returns the flat length of a grid with the given dims.
func tensorLen(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// gatherStride copies the stride-step sub-grid of src (shape dims) into dst
// (shape outDims), row-major.
func gatherStride(src []float64, dims []int, step int, dst []float64, outDims []int) {
	rank := len(dims)
	strides := make([]int, rank)
	s := 1
	for d := rank - 1; d >= 0; d-- {
		strides[d] = s
		s *= dims[d]
	}
	idx := make([]int, rank)
	for i := range dst {
		flat := 0
		for d := 0; d < rank; d++ {
			flat += idx[d] * step * strides[d]
		}
		dst[i] = src[flat]
		for d := rank - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < outDims[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// predictLevel evaluates the multilinear prediction of every level-l node
// from the coarser grid in data, in the level's deterministic stream order.
// Exactly one of residuals/add is non-nil:
//
//   - encode: residuals[i] = data[node_i] - prediction_i
//   - decode: data[node_i] = prediction_i + add[i]
//
// Writes touch only level-l nodes and reads only coarser-grid nodes, which
// are disjoint sets, so chunking the node list across workers is
// deterministic and race-free.
func predictLevel(plan *interleave.Plan, data []float64, l int, residuals, add []float64, workers int) {
	ix := plan.Indices(l)
	if len(ix) == 0 {
		return
	}
	dims := plan.Dims()
	rank := len(dims)
	strides := make([]int, rank)
	s := 1
	for d := rank - 1; d >= 0; d-- {
		strides[d] = s
		s *= dims[d]
	}
	// Nodes of level l sit on the stride-h grid but off the stride-2h
	// (coarser) grid, h = 2^(L-1-l): along each axis the index is a
	// multiple of h, and on at least one axis an odd multiple.
	h := 1 << (plan.Levels() - 1 - l)
	run := func(lo, hi int) {
		coords := make([]int, rank)
		for i := lo; i < hi; i++ {
			flat := ix[i]
			rem := flat
			for d := 0; d < rank; d++ {
				coords[d] = rem / strides[d]
				rem %= strides[d]
			}
			pred := predict(data, dims, strides, coords, h)
			if residuals != nil {
				residuals[i] = data[flat] - pred
			} else {
				data[flat] = pred + add[i]
			}
		}
	}
	if workers <= 1 {
		run(0, len(ix))
		return
	}
	pool.RunChunks(len(ix), workers, nil, func(_, lo, hi int) error {
		run(lo, hi)
		return nil
	})
}

// predict evaluates the multilinear interpolation of the coarser (stride
// 2h) grid at the node with the given coords: the equal-weight average over
// the 2^k corner nodes obtained by rounding every odd axis down and up to
// the coarser stride. A corner beyond the grid boundary is dropped, which
// clamps the interpolation to the surviving corners — still a convex
// combination, so the predictor stays max-norm non-expansive.
func predict(data []float64, dims, strides, coords []int, h int) float64 {
	// Collect the odd axes: coords[d] is an odd multiple of h on them.
	var oddAxes [8]int
	var oddCount int
	base := 0
	for d := range dims {
		c := coords[d]
		if (c/h)&1 == 1 {
			if oddCount < len(oddAxes) {
				oddAxes[oddCount] = d
			}
			oddCount++
			base += (c - h) * strides[d]
		} else {
			base += c * strides[d]
		}
	}
	if oddCount > len(oddAxes) {
		// Ranks above 8 fall back to the lower corner alone (still convex);
		// the pipeline never builds grids of rank > 8.
		return data[base]
	}
	sum := 0.0
	count := 0
	for mask := 0; mask < 1<<oddCount; mask++ {
		flat := base
		ok := true
		for b := 0; b < oddCount; b++ {
			if mask>>b&1 == 1 {
				d := oddAxes[b]
				up := coords[d] + h
				if up >= dims[d] {
					ok = false
					break
				}
				flat += 2 * h * strides[d]
			}
		}
		if !ok {
			continue
		}
		sum += data[flat]
		count++
	}
	return sum / float64(count)
}
