// Package decompose implements the MGARD-style multilevel decomposition and
// recomposition of N-dimensional uniform-grid data (§II-B of the paper).
//
// The transform is a tensor-product lifting scheme applied level by level,
// fine to coarse. At each refinement step, along each axis:
//
//  1. Predict: nodes at odd active positions are replaced by their
//     difference from the multilinear interpolation of the adjacent even
//     (coarse) nodes. These differences are the level's detail
//     coefficients — the analogue of MGARD's multilevel coefficients
//     obtained by interpolation from the coarser grid.
//  2. Update (optional): even nodes absorb a weighted portion of the
//     neighbouring details. This mimics MGARD's orthogonal L2 projection:
//     the coarse approximation becomes a (near-)L2-optimal representative
//     rather than plain subsampling, which decorrelates levels and makes
//     coefficient magnitudes decay the way MGARD's do.
//
// Both steps are lifting steps, so the inverse transform is exact to the
// last bit: Recompose(Decompose(x)) == x with no floating-point tolerance
// needed beyond the arithmetic itself (the operations are reversed in
// reverse order with the same operands).
//
// The decomposition works for arbitrary grid extents (not just 2^k+1);
// boundary nodes without a right-hand coarse neighbour are predicted from
// the left neighbour alone.
package decompose

import (
	"fmt"
	"math"

	"pmgard/internal/bufpool"
	"pmgard/internal/grid"
	"pmgard/internal/interleave"
	"pmgard/internal/obs"
	"pmgard/internal/pool"
)

// Options configures a decomposition.
type Options struct {
	// Levels is the number of coefficient levels L (≥ 1). The transform
	// performs L-1 refinement steps; level 0 is the coarsest.
	Levels int
	// Update enables the L2-projection-like lifting update step.
	Update bool
	// UpdateWeight is the lifting update weight; 0.25 reproduces the
	// standard linear-wavelet update. Ignored when Update is false.
	UpdateWeight float64
}

// DefaultOptions returns the configuration used throughout the paper's
// experiments: a five-level hierarchy with the L2 correction enabled.
func DefaultOptions() Options {
	return Options{Levels: 5, Update: true, UpdateWeight: 0.25}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.Levels < 1 || o.Levels > 30 {
		return fmt.Errorf("decompose: Levels %d out of range [1,30]", o.Levels)
	}
	if o.Update && (o.UpdateWeight < 0 || o.UpdateWeight > 0.5) {
		return fmt.Errorf("decompose: UpdateWeight %v out of range [0,0.5]", o.UpdateWeight)
	}
	return nil
}

// ErrorAmplification returns the tight constant C such that, for a grid of
// the given rank, a perturbation of at most Err_l on every level-l
// coefficient yields a reconstruction perturbed by at most C·Σ_l Err_l in
// the max norm: each level's perturbation is amplified only during its own
// refinement step ((1+2w) per axis pass), and the remaining inverse steps
// are max-norm non-expansive, so the per-step factors do not compound
// across levels.
func (o Options) ErrorAmplification(rank int) float64 {
	if !o.Update {
		return 1
	}
	return math.Pow(1+2*o.UpdateWeight, float64(rank))
}

// NaiveErrorAmplification returns the compounded absolute-row-sum constant
// of the original error-control theory ([19], the paper's Eq. 6): every
// inverse step is bounded by its worst-case per-axis amplification and the
// factors are multiplied across all L-1 steps, ignoring both the
// telescoping structure and sign cancellation. The result is a valid but
// wildly pessimistic bound — the source of the requested-vs-achieved gap
// of Fig. 2 that motivates the paper.
func (o Options) NaiveErrorAmplification(rank int) float64 {
	if !o.Update {
		return 1
	}
	return math.Pow(1+2*o.UpdateWeight, float64(rank*(o.Levels-1)))
}

// Decomposition holds the per-level coefficient streams of one field
// together with the plan needed to recompose them.
type Decomposition struct {
	plan    *interleave.Plan
	opt     Options
	coeffs  [][]float64
	workers int
}

// Decompose transforms t into multilevel coefficients, fanning the
// independent grid lines of each lifting pass across at most `workers`
// goroutines (≤ 0 means GOMAXPROCS; 1 runs sequentially). The input tensor
// is not modified. Every node is computed from the same operands in the
// same order regardless of worker count, so the resulting coefficients are
// bit-identical to the sequential transform. The returned Decomposition
// remembers the worker count and applies it to Recompose.
//
// A non-nil o records a "decompose" span with rank/level attrs, and
// counters decompose.transforms / decompose.passes (one pass per (step,
// axis) pair of the forward lifting schedule) / decompose.nodes.
func Decompose(t *grid.Tensor, opt Options, workers int, o *obs.Obs) (*Decomposition, error) {
	sp := o.Span("decompose", nil)
	sp.SetAttr("levels", opt.Levels)
	sp.SetAttr("rank", t.NDim())
	defer sp.End()
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	plan, err := interleave.NewPlan(t.Dims(), opt.Levels)
	if err != nil {
		return nil, err
	}
	workers = pool.Clamp(workers)
	work := t.Clone()
	forward(work, opt, workers)
	d := &Decomposition{plan: plan, opt: opt, coeffs: make([][]float64, opt.Levels), workers: workers}
	for l := 0; l < opt.Levels; l++ {
		d.coeffs[l] = plan.Extract(work.Data(), l, nil)
	}
	if o != nil {
		o.Counter("decompose.transforms").Add(1)
		o.Counter("decompose.passes").Add(int64((opt.Levels - 1) * t.NDim()))
		o.Counter("decompose.nodes").Add(int64(len(t.Data())))
	}
	return d, nil
}

// NewZero returns a Decomposition with all-zero coefficient streams for the
// given grid shape — the starting point when reassembling a partial
// retrieval from storage. workers is the worker count of the recomposition
// path (≤ 0 means GOMAXPROCS); it never changes the reconstructed bytes,
// only how many goroutines compute them.
func NewZero(dims []int, opt Options, workers int) (*Decomposition, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	plan, err := interleave.NewPlan(dims, opt.Levels)
	if err != nil {
		return nil, err
	}
	d := &Decomposition{plan: plan, opt: opt, coeffs: make([][]float64, opt.Levels), workers: pool.Clamp(workers)}
	for l, n := range plan.LevelSizes() {
		d.coeffs[l] = make([]float64, n)
	}
	return d, nil
}

// Workers returns the effective worker count used by the transform passes.
func (d *Decomposition) Workers() int { return d.workers }

// SetWorkers changes the worker count used by later Recompose calls (≤ 0
// means GOMAXPROCS).
func (d *Decomposition) SetWorkers(workers int) { d.workers = pool.Clamp(workers) }

// Plan returns the interleave plan of the decomposition.
func (d *Decomposition) Plan() *interleave.Plan { return d.plan }

// Options returns the transform options the decomposition was built with.
func (d *Decomposition) Options() Options { return d.opt }

// Levels returns the number of coefficient levels L.
func (d *Decomposition) Levels() int { return d.opt.Levels }

// Dims returns the original grid dimensions.
func (d *Decomposition) Dims() []int { return d.plan.Dims() }

// Coeffs returns the level-l coefficient stream. The slice is the
// decomposition's own storage; callers that mutate it change what
// Recompose reconstructs (this is how truncated retrieval is modelled).
func (d *Decomposition) Coeffs(l int) []float64 { return d.coeffs[l] }

// SetCoeffs replaces the level-l coefficient stream. The length must match
// the level size.
func (d *Decomposition) SetCoeffs(l int, c []float64) {
	if len(c) != len(d.coeffs[l]) {
		panic(fmt.Sprintf("decompose: SetCoeffs level %d length %d, want %d", l, len(c), len(d.coeffs[l])))
	}
	d.coeffs[l] = c
}

// CloneShape returns a new Decomposition sharing the plan, options and
// worker count but with zero-valued coefficient streams, used to assemble
// partial retrievals.
func (d *Decomposition) CloneShape() *Decomposition {
	c := &Decomposition{plan: d.plan, opt: d.opt, workers: d.workers, coeffs: make([][]float64, len(d.coeffs))}
	for l := range d.coeffs {
		c.coeffs[l] = make([]float64, len(d.coeffs[l]))
	}
	return c
}

// Recompose reconstructs the spatial field from the current coefficient
// streams, using the decomposition's worker count for the inverse passes.
func (d *Decomposition) Recompose() *grid.Tensor {
	work := grid.New(d.plan.Dims()...)
	for l := 0; l < d.opt.Levels; l++ {
		d.plan.Inject(work.Data(), l, d.coeffs[l])
	}
	inverse(work, d.opt, pool.Clamp(d.workers))
	return work
}

// RecomposeLevel reconstructs the approximation on the coarser grid that
// levels 0..upTo span, returning a tensor with ceil(n/2^s) nodes per axis
// (s = Levels-1-upTo). This is the paper's reduced-degrees-of-freedom mode:
// an analysis that can work at lower resolution skips both the I/O *and*
// the compute of the finer levels. upTo = Levels-1 returns the full grid.
func (d *Decomposition) RecomposeLevel(upTo int) (*grid.Tensor, error) {
	if upTo < 0 || upTo >= d.opt.Levels {
		return nil, fmt.Errorf("decompose: RecomposeLevel upTo %d out of [0,%d)", upTo, d.opt.Levels)
	}
	work := grid.New(d.plan.Dims()...)
	for l := 0; l <= upTo; l++ {
		d.plan.Inject(work.Data(), l, d.coeffs[l])
	}
	// Invert only the steps that refine within the kept levels.
	stop := d.opt.Levels - 1 - upTo
	rank := work.NDim()
	for s := d.opt.Levels - 2; s >= stop; s-- {
		h := 1 << s
		for axis := rank - 1; axis >= 0; axis-- {
			forEachLineWorkers(work, h, axis, pool.Clamp(d.workers), func(base, stride, count int) {
				if d.opt.Update {
					updateInverse(work.Data(), base, stride, count, d.opt.UpdateWeight)
				}
				predictInverse(work.Data(), base, stride, count)
			})
		}
	}
	// Gather the active sub-grid at step `stop`.
	dims := d.plan.Dims()
	step := 1 << stop
	outDims := make([]int, rank)
	for i, n := range dims {
		outDims[i] = (n-1)/step + 1
	}
	out := grid.New(outDims...)
	idx := make([]int, rank)
	src := make([]int, rank)
	var walk func(depth int)
	walk = func(depth int) {
		if depth == rank {
			out.Set(work.At(src...), idx...)
			return
		}
		for i := 0; i < outDims[depth]; i++ {
			idx[depth] = i
			src[depth] = i * step
			walk(depth + 1)
		}
	}
	walk(0)
	return out, nil
}

// forward applies the full multilevel transform in place. Within one
// (step, axis) pass every line is an independent slab — lines along the
// pass axis share no nodes — so the pass fans out across workers; passes
// themselves are barriers, preserving the sequential dataflow exactly.
func forward(t *grid.Tensor, opt Options, workers int) {
	rank := t.NDim()
	for s := 0; s < opt.Levels-1; s++ {
		h := 1 << s
		for axis := 0; axis < rank; axis++ {
			forEachLineWorkers(t, h, axis, workers, func(base, stride, count int) {
				predictForward(t.Data(), base, stride, count)
				if opt.Update {
					updateForward(t.Data(), base, stride, count, opt.UpdateWeight)
				}
			})
		}
	}
}

// inverse applies the full inverse transform in place, with the same
// per-pass line fan-out as forward.
func inverse(t *grid.Tensor, opt Options, workers int) {
	rank := t.NDim()
	for s := opt.Levels - 2; s >= 0; s-- {
		h := 1 << s
		for axis := rank - 1; axis >= 0; axis-- {
			forEachLineWorkers(t, h, axis, workers, func(base, stride, count int) {
				if opt.Update {
					updateInverse(t.Data(), base, stride, count, opt.UpdateWeight)
				}
				predictInverse(t.Data(), base, stride, count)
			})
		}
	}
}

// forEachLineWorkers is forEachLine with the lines of one pass distributed
// across a bounded worker pool. The sequential path (workers == 1) avoids
// materializing the line list; the parallel path enumerates line base
// offsets once and hands each worker a contiguous chunk. Lines are disjoint
// node sets, so scheduling cannot change any computed value.
func forEachLineWorkers(t *grid.Tensor, h, axis, workers int, fn func(base, stride, count int)) {
	if workers <= 1 {
		forEachLine(t, h, axis, fn)
		return
	}
	// The base list is per-pass scratch; draw it from the shared pool so
	// steady-state decomposition stops allocating it. Appends that outgrow
	// the pooled backing reallocate once, and the grown array is what gets
	// filed back, so repeated passes converge on a big-enough buffer.
	bases := bufpool.Ints(64)[:0]
	defer func() { bufpool.PutInts(bases) }()
	stride, count := 0, 0
	forEachLine(t, h, axis, func(base, s, c int) {
		bases = append(bases, base)
		stride, count = s, c
	})
	if len(bases) < 2 {
		for _, b := range bases {
			fn(b, stride, count)
		}
		return
	}
	pool.RunChunks(len(bases), workers, nil, func(_, lo, hi int) error {
		for i := lo; i < hi; i++ {
			fn(bases[i], stride, count)
		}
		return nil
	})
}

// forEachLine invokes fn for every 1-D line of the step-h active grid along
// the given axis. base is the flat offset of the line's first active node,
// stride the flat distance between consecutive active nodes on the line, and
// count the number of active nodes. Lines with fewer than two active nodes
// are skipped.
func forEachLine(t *grid.Tensor, h, axis int, fn func(base, stride, count int)) {
	dims := t.Dims()
	rank := len(dims)
	// Active node count and flat stride per axis.
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
	lineStride := h * flatStride[axis]
	// Odometer over all other axes' active positions.
	pos := make([]int, rank)
	for {
		base := 0
		for d := 0; d < rank; d++ {
			if d != axis {
				base += pos[d] * h * flatStride[d]
			}
		}
		fn(base, lineStride, counts[axis])
		// Advance odometer, skipping the transform axis.
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

// predictForward replaces odd active nodes with their interpolation
// residual.
func predictForward(data []float64, base, stride, count int) {
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

// predictInverse restores odd active nodes from residual plus prediction.
func predictInverse(data []float64, base, stride, count int) {
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

// updateForward adds a weighted portion of neighbouring details to the even
// nodes, completing the L2-style lifting step.
func updateForward(data []float64, base, stride, count int, w float64) {
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

// updateInverse removes the update contribution from even nodes.
func updateInverse(data []float64, base, stride, count int, w float64) {
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
