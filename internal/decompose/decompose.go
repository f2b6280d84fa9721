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
	inverse(work, d.opt, d.workers, 0)
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
	inverse(work, d.opt, d.workers, stop)
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
// (step, axis) pass the lines along the pass axis share no nodes, so the
// pass fans out across workers; passes themselves are barriers, preserving
// the sequential dataflow exactly.
func forward(t *grid.Tensor, opt Options, workers int) {
	for s := 0; s < opt.Levels-1; s++ {
		for axis := 0; axis < t.NDim(); axis++ {
			liftPass(t, opt, 1<<s, axis, workers, true)
		}
	}
}

// inverse undoes forward's passes in reverse order, down to refinement step
// stop: 0 restores the full grid, a larger stop leaves the step-stop active
// sub-grid holding the approximation the coarser levels span.
func inverse(t *grid.Tensor, opt Options, workers, stop int) {
	for s := opt.Levels - 2; s >= stop; s-- {
		for axis := t.NDim() - 1; axis >= 0; axis-- {
			liftPass(t, opt, 1<<s, axis, workers, false)
		}
	}
}

// liftPass runs one lifting pass, forward or inverse, over the step-h active
// grid along axis. The pass is a set of independent 1-D lines; what differs
// by axis is the order memory is walked in.
//
// Along the last axis a line is contiguous (stride h), and each line runs
// through the line kernels. Along any other axis a line strides over whole
// rows of the tensor, so the loops are interchanged: for every position of
// the remaining axes, node j of all the lines that differ only in their
// last-axis coordinate is lifted together, as one row operation
// c[i] ±= f(a[i], b[i]) over the contiguous last axis. Every node is still
// computed from the same operands by the same operations in the same order
// — its line's other nodes are untouched by the row's other columns — so the
// result is bit-identical to lifting line by line, while memory is touched
// in rows instead of stride-n² lines.
//
// Work fans out over the positions of the axes that are neither the pass
// axis nor the last one; chunks own disjoint nodes, so scheduling cannot
// change any computed value.
func liftPass(t *grid.Tensor, opt Options, h, axis, workers int, fwd bool) {
	dims, data := t.Dims(), t.Data()
	last := len(dims) - 1
	// Active node count and flat stride per axis.
	counts := make([]int, len(dims))
	flatStride := make([]int, len(dims))
	positions := 1
	for d, s := last, 1; d >= 0; d-- {
		counts[d] = (dims[d]-1)/h + 1
		flatStride[d] = s
		s *= dims[d]
		if d != axis && d != last {
			positions *= counts[d]
		}
	}
	count, stride := counts[axis], h*flatStride[axis]
	if count < 2 {
		return
	}
	// baseOf returns the flat offset of position p's first active node.
	baseOf := func(p int) int {
		base := 0
		for d := last - 1; d >= 0; d-- {
			if d != axis {
				base += p % counts[d] * h * flatStride[d]
				p /= counts[d]
			}
		}
		return base
	}
	if axis == last {
		pool.RunChunks(positions, workers, nil, func(_, lo, hi int) error {
			for p := lo; p < hi; p++ {
				liftLine(data, baseOf(p), stride, count, opt, fwd)
			}
			return nil
		})
		return
	}
	// With fewer positions than workers (a 2-D grid has one), each position's
	// rows are also cut into column ranges so the pass still fans out.
	cols, split := counts[last], 1
	if positions < workers {
		split = min((workers+positions-1)/positions, cols)
	}
	pool.RunChunks(positions*split, workers, nil, func(_, lo, hi int) error {
		for u := lo; u < hi; u++ {
			c0, c1 := u%split*cols/split, (u%split+1)*cols/split
			liftRows(data[baseOf(u/split)+c0*h:], stride, count, (c1-c0-1)*h+1, h, opt, fwd)
		}
		return nil
	})
}

// liftLine lifts one line: predict then update going forward, the reverse
// coming back.
func liftLine(data []float64, base, stride, count int, opt Options, fwd bool) {
	if fwd {
		predictForward(data, base, stride, count)
		if opt.Update {
			updateForward(data, base, stride, count, opt.UpdateWeight)
		}
		return
	}
	if opt.Update {
		updateInverse(data, base, stride, count, opt.UpdateWeight)
	}
	predictInverse(data, base, stride, count)
}

// liftRows is liftLine for the width-long bundle of lines whose node j is
// the row data[j*stride : j*stride+width], active every h-th element.
func liftRows(data []float64, stride, count, width, h int, opt Options, fwd bool) {
	row := func(j int) []float64 {
		if j < 0 || j >= count {
			return nil
		}
		return data[j*stride : j*stride+width]
	}
	predict := func() {
		for j := 1; j < count; j += 2 {
			predictRow(row(j), row(j-1), row(j+1), h, fwd)
		}
	}
	update := func() {
		if !opt.Update {
			return
		}
		for j := 0; j < count; j += 2 {
			updateRow(row(j), row(j-1), row(j+1), h, opt.UpdateWeight, fwd)
		}
	}
	if fwd {
		predict()
		update()
	} else {
		update()
		predict()
	}
}

// predictRow is the predict step of one odd row c between its even
// neighbours a and b; a nil b is the boundary node predicted from the left
// neighbour alone. The expressions are the line kernels', term for term; the
// direction is chosen outside the interior loops because they are where a
// pass spends its time.
func predictRow(c, a, b []float64, h int, fwd bool) {
	a = a[:len(c)]
	switch {
	case b == nil:
		for i := 0; i < len(c); i += h {
			if fwd {
				c[i] -= a[i]
			} else {
				c[i] += a[i]
			}
		}
	case fwd:
		b = b[:len(c)]
		for i := 0; i < len(c); i += h {
			c[i] -= 0.5 * (a[i] + b[i])
		}
	default:
		b = b[:len(c)]
		for i := 0; i < len(c); i += h {
			c[i] += 0.5 * (a[i] + b[i])
		}
	}
}

// updateRow is the update step of one even row c between its odd neighbours
// a and b, either of which is nil past the boundary. sum starts from zero
// and adds left then right, exactly as the line kernels do (0 + x is not x
// when x is −0).
func updateRow(c, a, b []float64, h int, w float64, fwd bool) {
	switch {
	case a == nil || b == nil:
		if a == nil {
			a = b
		}
		a = a[:len(c)]
		for i := 0; i < len(c); i += h {
			var sum float64
			sum += a[i]
			if fwd {
				c[i] += w * sum
			} else {
				c[i] -= w * sum
			}
		}
	case fwd:
		a, b = a[:len(c)], b[:len(c)]
		for i := 0; i < len(c); i += h {
			var sum float64
			sum += a[i]
			sum += b[i]
			c[i] += w * sum
		}
	default:
		a, b = a[:len(c)], b[:len(c)]
		for i := 0; i < len(c); i += h {
			var sum float64
			sum += a[i]
			sum += b[i]
			c[i] -= w * sum
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
