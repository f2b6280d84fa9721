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
// constant is exactly 1. This is the backend's
// structural advantage over the lifting scheme on smooth fields: no update
// step means no (1+2w)^rank amplification, so the planner's bound is sharp
// and fewer planes clear a given tolerance.
package interp

import (
	"fmt"
	"slices"

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
	sizes := plan.LevelSizes()
	for l := 0; l < opts.Levels; l++ {
		cs := make([]float64, sizes[l])
		d.coeffs[l] = cs
		if l == 0 {
			plan.Extract(data, 0, cs)
			continue
		}
		predictLevel(plan, data, l, cs, workers)
	}
	if o != nil {
		o.Counter("interp.decompositions").Add(1)
		o.Counter("interp.nodes").Add(int64(len(data)))
	}
	return d, nil
}

// DecomposeInPlace implements codec.ProgressiveCodec: Decompose reads t and
// allocates its own streams, so consuming t changes nothing.
func (c Codec) DecomposeInPlace(t *grid.Tensor, opts codec.Options, workers int, o *obs.Obs) (codec.Decomposition, error) {
	return c.Decompose(t, opts, workers, o)
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
	return &decomposition{plan: plan, workers: pool.Clamp(workers), coeffs: make([][]float64, opts.Levels)}, nil
}

// NaiveAmplification implements codec.ProgressiveCodec: interpolation is
// max-norm non-expansive, so even the naive compounded bound is 1.
func (Codec) NaiveAmplification(codec.Options, int) float64 { return 1 }

// LevelAmplification implements codec.ProgressiveCodec: every level's
// constant is 1, for the same reason. Options validate refuses get none.
func (Codec) LevelAmplification(_ []int, opts codec.Options) []float64 {
	if validate(opts) != nil {
		return nil
	}
	c := make([]float64, opts.Levels)
	for l := range c {
		c[l] = 1
	}
	return c
}

// decomposition carries the per-level residual streams and the interleave
// plan that localizes them on the grid. A NewZero decomposition allocates a
// stream on its level's first Coeffs call.
type decomposition struct {
	plan    *interleave.Plan
	coeffs  [][]float64
	workers int
}

// Levels implements codec.Decomposition.
func (d *decomposition) Levels() int { return len(d.coeffs) }

// Plan implements codec.Decomposition.
func (d *decomposition) Plan() *interleave.Plan { return d.plan }

// Coeffs implements codec.Decomposition.
func (d *decomposition) Coeffs(l int) []float64 {
	if d.coeffs[l] == nil {
		d.coeffs[l] = make([]float64, d.plan.LevelSizes()[l])
	}
	return d.coeffs[l]
}

// Recompose implements codec.Decomposition.
func (d *decomposition) Recompose() *grid.Tensor { return codec.RecomposeStreams(d) }

// RecomposeInto implements codec.Decomposition: level 0's nodes hold the
// coarsest values, and each finer level's nodes, holding residuals, get the
// interpolation of the already-reconstructed coarser grid added. The decoder
// predicts from decoded values where the encoder predicted from exact ones;
// the difference is what the Err matrix bounds. No other node of work is
// read: each level's prediction reads coarser nodes only, and the gathered
// sub-grid is exactly the nodes of levels 0..upTo.
func (d *decomposition) RecomposeInto(upTo int, work *grid.Tensor) (*grid.Tensor, error) {
	L := len(d.coeffs)
	if upTo < 0 || upTo >= L {
		return nil, fmt.Errorf("interp: RecomposeInto upTo %d out of [0,%d)", upTo, L)
	}
	dims := d.plan.Dims()
	if !slices.Equal(work.Dims(), dims) {
		return nil, fmt.Errorf("interp: workspace dims %v, want %v", work.Dims(), dims)
	}
	data := work.Data()
	for l := 1; l <= upTo; l++ {
		predictLevel(d.plan, data, l, nil, d.workers)
	}
	if upTo == L-1 {
		return work, nil
	}
	return work.GatherStride(1 << (L - 1 - upTo)), nil
}

// predictLevel evaluates the multilinear prediction of every level-l node
// from the coarser grid in data, walking the level's runs of the plan's
// run schedule — stream entry r.First+j is the node at r.Off+j·r.Stride:
//
//   - encode (residuals non-nil): residuals[i] = data[node_i] - prediction_i
//   - decode (residuals nil): data[node_i] = prediction_i + data[node_i],
//     the node holding its residual on entry
//
// Writes touch only level-l nodes and reads only coarser-grid nodes, which
// are disjoint sets, so chunking the schedule's runs across workers is
// deterministic and race-free.
func predictLevel(plan *interleave.Plan, data []float64, l int, residuals []float64, workers int) {
	runs := plan.Runs()
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
		for _, r := range runs[lo:hi] {
			if r.Level != l {
				continue
			}
			for j := 0; j < r.Count; j++ {
				flat := r.Off + j*r.Stride
				rem := flat
				for d := 0; d < rank; d++ {
					coords[d] = rem / strides[d]
					rem %= strides[d]
				}
				pred := predict(data, dims, strides, coords, h)
				if residuals != nil {
					residuals[r.First+j] = data[flat] - pred
				} else {
					data[flat] = pred + data[flat]
				}
			}
		}
	}
	if workers <= 1 {
		run(0, len(runs))
		return
	}
	pool.RunChunks(len(runs), workers, nil, func(_, lo, hi int) error {
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
