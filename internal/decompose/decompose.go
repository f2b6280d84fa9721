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
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"pmgard/internal/codec"
	"pmgard/internal/cpufeat"
	"pmgard/internal/grid"
	"pmgard/internal/interleave"
	"pmgard/internal/obs"
	"pmgard/internal/pool"
)

// DefaultOptions returns the configuration used throughout the paper's
// experiments: a five-level hierarchy with the L2 correction enabled.
func DefaultOptions() codec.Options {
	return codec.Options{Levels: 5, Update: true, UpdateWeight: 0.25}
}

// Validate reports whether the options are usable by the lifting transform.
func Validate(o codec.Options) error {
	if o.Levels < 1 || o.Levels > 30 {
		return fmt.Errorf("decompose: Levels %d out of range [1,30]", o.Levels)
	}
	if o.Update && (o.UpdateWeight < 0 || o.UpdateWeight > 0.5) {
		return fmt.Errorf("decompose: UpdateWeight %v out of range [0,0.5]", o.UpdateWeight)
	}
	return nil
}

// NaiveErrorAmplification returns the compounded absolute-row-sum constant
// of the original error-control theory ([19], the paper's Eq. 6): every
// inverse step is bounded by its worst-case per-axis amplification and the
// factors are multiplied across all L-1 steps, ignoring both the
// telescoping structure and sign cancellation. With the update step the
// result is a valid but wildly pessimistic bound (≈ 130 against exact
// per-level constants ≤ 7 at 3-D, five levels) — the source of the
// requested-vs-achieved gap of Fig. 2 that motivates the paper. Without
// it, the 1 returned is no bound (exact constants reach 7; DESIGN.md §5).
func NaiveErrorAmplification(o codec.Options, rank int) float64 {
	if !o.Update {
		return 1
	}
	return math.Pow(1+2*o.UpdateWeight, float64(rank*(o.Levels-1)))
}

// Decomposition holds the per-level coefficient streams of one field
// together with what is needed to recompose them.
type Decomposition struct {
	dims    []int
	sizes   []int
	opt     codec.Options
	coeffs  [][]float64
	workers int
	// plan is taken from interleave's memo on the first Plan call:
	// Decompose splits the levels without it.
	planOnce sync.Once
	plan     *interleave.Plan
}

// Decompose transforms t into multilevel coefficients, fanning each
// refinement step's axis-0 slabs out in contiguous chunks across at most
// `workers` goroutines (≤ 0 means GOMAXPROCS; 1 runs sequentially). The
// input tensor is not modified. Every node is computed from the same
// operands in the same order regardless of worker count, so the resulting
// coefficients are bit-identical to the sequential transform. The returned Decomposition
// remembers the worker count and applies it to Recompose.
//
// The transform runs on one copy of t, which the finest level's stream
// then lives in (see split); the coarser levels are copied out.
//
// A non-nil o records a "decompose" span with rank/level attrs, and
// counters decompose.transforms / decompose.passes (one pass per (step,
// axis) pair of the forward lifting schedule) / decompose.nodes.
func Decompose(t *grid.Tensor, opt codec.Options, workers int, o *obs.Obs) (*Decomposition, error) {
	sp := o.Span("decompose", nil)
	sp.SetAttr("levels", opt.Levels)
	sp.SetAttr("rank", t.NDim())
	defer sp.End()
	if err := Validate(opt); err != nil {
		return nil, err
	}
	dims := slices.Clone(t.Dims())
	sizes, err := interleave.LevelSizes(dims, opt.Levels)
	if err != nil {
		return nil, err
	}
	workers = pool.Clamp(workers)
	work := t.Clone()
	forward(work, opt, workers)
	d := &Decomposition{dims: dims, sizes: sizes, opt: opt, workers: workers}
	d.coeffs = split(work.Data(), dims, sizes)
	if o != nil {
		o.Counter("decompose.transforms").Add(1)
		o.Counter("decompose.passes").Add(int64((opt.Levels - 1) * t.NDim()))
		o.Counter("decompose.nodes").Add(int64(len(t.Data())))
	}
	return d, nil
}

// split cuts the transformed grid data into its level streams in one
// interleave.Walk, so each stream is in the order a plan's Extract gives.
// The coarse levels are copied out into one allocation. The finest level
// is compacted in place to the front of data and returned as a full slice
// expression of it, so nothing can append into the dead tail: its nodes
// come at ascending offsets, and its write cursor never passes the node
// being read, so no node is overwritten before the walk has read it.
func split(data []float64, dims, sizes []int) [][]float64 {
	top := len(sizes) - 1
	coeffs := make([][]float64, len(sizes))
	coarse := make([]float64, len(data)-sizes[top])
	for l, off := 0, 0; l < top; l++ {
		coeffs[l] = coarse[off : off+sizes[l] : off+sizes[l]]
		off += sizes[l]
	}
	next := make([]int, len(sizes))
	interleave.Walk(dims, len(sizes), func(flat int, row []uint8, fine bool) {
		if fine {
			next[top] += copy(data[next[top]:], data[flat:flat+len(row)])
			return
		}
		for i, l := range row {
			if int(l) == top {
				data[next[top]] = data[flat+i]
			} else {
				coeffs[l][next[l]] = data[flat+i]
			}
			next[l]++
		}
	})
	coeffs[top] = data[:sizes[top]:sizes[top]]
	return coeffs
}

// NewZero returns a Decomposition with all-zero coefficient streams for the
// given grid shape — the starting point when reassembling a partial
// retrieval from storage. A stream is allocated on its level's first Coeffs
// call, so a decomposition that only recomposes in place (RecomposeInto)
// holds none. Its plan is taken up front: a retrieval places coefficients
// with it. workers is the worker count of the recomposition path (≤ 0
// means GOMAXPROCS); it never changes the reconstructed bytes, only how many
// goroutines compute them.
func NewZero(dims []int, opt codec.Options, workers int) (*Decomposition, error) {
	if err := Validate(opt); err != nil {
		return nil, err
	}
	plan, err := interleave.NewPlan(dims, opt.Levels)
	if err != nil {
		return nil, err
	}
	d := &Decomposition{dims: plan.Dims(), sizes: plan.LevelSizes(), opt: opt, coeffs: make([][]float64, opt.Levels), workers: pool.Clamp(workers)}
	d.planOnce.Do(func() { d.plan = plan })
	return d, nil
}

// Workers returns the effective worker count used by the transform passes.
func (d *Decomposition) Workers() int { return d.workers }

// SetWorkers changes the worker count used by later Recompose calls (≤ 0
// means GOMAXPROCS).
func (d *Decomposition) SetWorkers(workers int) { d.workers = pool.Clamp(workers) }

// Plan returns the interleave plan of the decomposition, taking it from
// interleave's memo on the first call. It is safe for concurrent callers.
func (d *Decomposition) Plan() *interleave.Plan {
	d.planOnce.Do(func() {
		// The shape passed Decompose's validation, so NewPlan cannot fail.
		d.plan, _ = interleave.NewPlan(d.dims, d.opt.Levels)
	})
	return d.plan
}

// Options returns the transform options the decomposition was built with.
func (d *Decomposition) Options() codec.Options { return d.opt }

// Levels returns the number of coefficient levels L.
func (d *Decomposition) Levels() int { return d.opt.Levels }

// Dims returns the original grid dimensions. The returned slice is the
// decomposition's own and must not be modified.
func (d *Decomposition) Dims() []int { return d.dims }

// Coeffs returns the level-l coefficient stream, allocating it all-zero on
// a NewZero decomposition's first call. The slice is the decomposition's
// own storage; callers that mutate it change what Recompose reconstructs
// (this is how truncated retrieval is modelled).
func (d *Decomposition) Coeffs(l int) []float64 {
	if d.coeffs[l] == nil {
		d.coeffs[l] = make([]float64, d.sizes[l])
	}
	return d.coeffs[l]
}

// SetCoeffs replaces the level-l coefficient stream. The length must match
// the level size.
func (d *Decomposition) SetCoeffs(l int, c []float64) {
	if n := d.sizes[l]; len(c) != n {
		panic(fmt.Sprintf("decompose: SetCoeffs level %d length %d, want %d", l, len(c), n))
	}
	d.coeffs[l] = c
}

// CloneShape returns a new Decomposition of the same shape, options and
// worker count but with zero-valued coefficient streams, used to assemble
// partial retrievals.
func (d *Decomposition) CloneShape() *Decomposition {
	c := &Decomposition{dims: d.dims, sizes: d.sizes, opt: d.opt, workers: d.workers, coeffs: make([][]float64, len(d.coeffs))}
	for l, n := range d.sizes {
		c.coeffs[l] = make([]float64, n)
	}
	return c
}

// Recompose reconstructs the spatial field from the current coefficient
// streams, using the decomposition's worker count for the inverse passes.
func (d *Decomposition) Recompose() *grid.Tensor { return codec.RecomposeStreams(d) }

// RecomposeInto runs the inverse transform in place on work — a tensor of
// the full grid's shape whose nodes of levels 0..upTo already hold those
// levels' coefficients — down to the step levels 0..upTo span. At upTo =
// Levels-1 the field is reconstructed in work, which is returned; a coarser
// upTo gathers its sub-grid, ceil(n/2^s) nodes per axis (s =
// Levels-1-upTo), into a new tensor and leaves work as scratch. That is the
// paper's reduced-degrees-of-freedom mode: an analysis that can work at
// lower resolution skips both the I/O and the compute of the finer levels.
// No other node is read: the levels partition the grid, so levels 0..upTo
// are every node of the step-2^s sub-grid, and the inverse passes down to
// step s read nothing else. The streams are not read.
func (d *Decomposition) RecomposeInto(upTo int, work *grid.Tensor) (*grid.Tensor, error) {
	if upTo < 0 || upTo >= d.opt.Levels {
		return nil, fmt.Errorf("decompose: RecomposeInto upTo %d out of [0,%d)", upTo, d.opt.Levels)
	}
	if !slices.Equal(work.Dims(), d.dims) {
		return nil, fmt.Errorf("decompose: workspace dims %v, want %v", work.Dims(), d.dims)
	}
	// Invert only the steps that refine within the kept levels.
	stop := d.opt.Levels - 1 - upTo
	inverse(work, d.opt, d.workers, stop)
	if stop == 0 {
		return work, nil
	}
	return work.GatherStride(1 << stop), nil
}

// forward applies the full multilevel transform in place, one refinement
// step after another, finest first.
func forward(t *grid.Tensor, opt codec.Options, workers int) {
	for s := 0; s < opt.Levels-1; s++ {
		liftStep(t, opt, 1<<s, workers, true)
	}
}

// inverse undoes forward's steps in reverse order, down to refinement step
// stop: 0 restores the full grid, a larger stop leaves the step-stop active
// sub-grid holding the approximation the coarser levels span.
func inverse(t *grid.Tensor, opt codec.Options, workers, stop int) {
	for s := opt.Levels - 2; s >= stop; s-- {
		liftStep(t, opt, 1<<s, workers, false)
	}
}

// liftChunk bounds the elements one assembly call lifts (2 MiB of
// operands): a goroutine cannot be preempted inside the call, so a long
// row is handed over in chunks, and four lines longer than a chunk
// together stay in Go.
const liftChunk = 1 << 16

// minChunkSlabs is the fewest axis-0 slabs a worker's chunk holds. The
// lifts within two or three slabs of a chunk border wait for the join, so a
// thinner chunk would leave most of its work to the serial border phase.
const minChunkSlabs = 3

// liftStep runs one refinement step, forward or inverse, over the step-h
// active grid: every axis's lifting pass, in the schedule's axis order, as
// one sweep over the grid's axis-0 slabs instead of one sweep per axis.
//
// A slab is the active sub-grid at one active axis-0 index, and its inner
// axes' passes are the rank-(r−1) step on it. Going inverse, each slab gets
// that step while it is cache resident, and the axis-0 lifts follow as a
// wavefront: even slab e is updated once its odd neighbours e±1 have had
// their inner passes, and odd slab o is predicted once e = o±1 are updated.
// Forward is the mirror image: predict(o) first, update(e) after
// predict(e±1), and a slab's inner passes only after every axis-0 lift that
// touches it. The same recursion runs the slab's own step over its rows, so
// every node is computed from the same operands, by the same expressions, in
// the same order as a pass-by-pass schedule that sweeps each axis over the
// whole grid in turn.
//
// The slabs are cut into contiguous chunks, one per worker. A worker runs
// the wavefront inside its chunk, doing only the lifts whose operands and
// readers all lie in it; after one join the lifts left at chunk borders run
// in dependency order (see borders). Until the join a worker reads and
// writes its own chunk's slabs only, so the worker count never changes a
// bit.
func liftStep(t *grid.Tensor, opt codec.Options, h, workers int, fwd bool) {
	v := activeView(t.Dims(), h)
	lf := &lifter{data: t.Data(), opt: opt, h: h, fwd: fwd}
	ch := chunking{slabs: v.n[0], n: min(workers, v.n[0]/minChunkSlabs)}
	if len(v.n) == 1 || ch.n < 2 {
		lf.step(v)
		return
	}
	// A chunk's wavefront never fails, so neither does the fan-out.
	_ = pool.Run(context.Background(), ch.n, ch.n, nil, func(_, i int) error {
		lo, hi := ch.bounds(i)
		lf.wave(v, ch, lo, hi)
		return nil
	})
	lf.borders(v, ch)
}

// view is the step-h active sub-grid of a tensor or of one of its slabs:
// n[d] active nodes along axis d, stride[d] flat elements apart, the first
// at flat offset off.
type view struct {
	off       int
	n, stride []int
}

// activeView returns the view of the step-h active grid of a tensor of
// shape dims.
func activeView(dims []int, h int) view {
	rank := len(dims)
	ints := make([]int, 2*rank)
	v := view{n: ints[:rank], stride: ints[rank:]}
	for d, s := rank-1, 1; d >= 0; d-- {
		v.n[d] = (dims[d]-1)/h + 1
		v.stride[d] = h * s
		s *= dims[d]
	}
	return v
}

// slab returns the view of the active sub-grid at axis-0 index k.
func (v view) slab(k int) view {
	return view{off: v.off + k*v.stride[0], n: v.n[1:], stride: v.stride[1:]}
}

// chunking cuts slabs [0, slabs) into n contiguous chunks, chunk i holding
// [i·slabs/n, (i+1)·slabs/n).
type chunking struct{ slabs, n int }

func (ch chunking) bounds(i int) (lo, hi int) {
	return i * ch.slabs / ch.n, (i + 1) * ch.slabs / ch.n
}

// owns reports whether the slabs lo..hi that exist all lie in one chunk.
func (ch chunking) owns(lo, hi int) bool {
	return ch.n == 1 || ch.of(lo) == ch.of(hi)
}

// of returns the chunk holding slab k, clamped to [0, slabs).
func (ch chunking) of(k int) int {
	k = min(max(k, 0), ch.slabs-1)
	return ((k+1)*ch.n - 1) / ch.slabs
}

// lifter carries one refinement step through the slab recursion.
type lifter struct {
	data []float64
	opt  codec.Options
	h    int
	fwd  bool
}

// A chunk's wavefront runs a lift only when the lift's operands and readers
// all lie in the chunk; ownsPredict, ownsUpdate and ownsStep say so for the
// predict of odd slab o, the update of even slab e and the inner step of
// slab k. Going inverse, update(e) reads e±1 and precedes predict(e±1), and
// predict(o) follows update(o±1), so it reaches o±2. Going forward,
// predict(o) reads o±1 and precedes update(o±1), which reaches e±2, and a
// slab's inner step follows every lift that touches it: k±2 for even k,
// k±3 for odd.
func (lf *lifter) ownsPredict(ch chunking, o int) bool {
	if lf.fwd {
		return ch.owns(o-1, o+1)
	}
	return ch.owns(o-2, o+2)
}

func (lf *lifter) ownsUpdate(ch chunking, e int) bool {
	if lf.fwd {
		return ch.owns(e-2, e+2)
	}
	return ch.owns(e-1, e+1)
}

func (lf *lifter) ownsStep(ch chunking, k int) bool {
	if !lf.fwd {
		return true
	}
	r := 2 + k&1
	return ch.owns(k-r, k+r)
}

// step runs the refinement step on v on the calling goroutine.
func (lf *lifter) step(v view) {
	switch {
	case len(v.n) == 1:
		lf.line(v)
	case v.n[0] == 1: // no axis-0 lifts on a single slab
		lf.step(v.slab(0))
	default:
		lf.wave(v, chunking{slabs: v.n[0], n: 1}, 0, v.n[0])
	}
}

// wave runs the lifts of chunk [lo, hi) of v's slabs that the chunk owns, as
// a wavefront: at frontier k the inverse steps slab k, updates k−1 and
// predicts k−2; the forward predicts k−1, updates k−2 and steps k−3. At most
// five slabs are live at a time.
func (lf *lifter) wave(v view, ch chunking, lo, hi int) {
	in := func(k int) bool { return k >= lo && k < hi }
	if lf.fwd {
		for k := lo; k < hi+3; k++ {
			if o := k - 1; in(o) && o&1 == 1 && lf.ownsPredict(ch, o) {
				lf.predict(v, o)
			}
			if e := k - 2; in(e) && e&1 == 0 && lf.ownsUpdate(ch, e) {
				lf.update(v, e)
			}
			if i := k - 3; in(i) && lf.ownsStep(ch, i) {
				lf.step(v.slab(i))
			}
		}
		return
	}
	for k := lo; k < hi+2; k++ {
		lf.inverseStep(v, k, lo, hi)
		if e := k - 1; in(e) && e&1 == 0 && lf.ownsUpdate(ch, e) {
			lf.update(v, e)
		}
		if o := k - 2; in(o) && o&1 == 1 && lf.ownsPredict(ch, o) {
			lf.predict(v, o)
		}
	}
}

// inverseStep runs the inner step at frontier k of the inverse wavefront
// over slabs [lo, hi) of v: slab k's, when k is one of them. When v's slabs
// are last-axis lines that the AVX2 kernel lifts (see lines4), frontier
// k ≡ 0 (mod 4) lifts lines k…k+3 in one call if all four lie in [lo, hi),
// and frontiers k+1…k+3 lift none. Lifting a line early changes no bit: a
// line's lift reads that line alone, and the axis-0 lifts at frontier m
// touch lines ≤ m only, so line k+i is first touched at frontier k+i, after
// its lift either way.
func (lf *lifter) inverseStep(v view, k, lo, hi int) {
	if g := k &^ 3; len(v.n) == 2 && g >= lo && g+4 <= hi && lines4(v.n[1]) {
		if k == g {
			inverseLines4AVX2(lf.data, v.off+g*v.stride[0], v.stride[0], v.n[1], lf.h, lf.opt)
		}
		return
	}
	if k >= lo && k < hi {
		lf.step(v.slab(k))
	}
}

// borders runs, after the chunks' join, what no chunk owned, in the step's
// dependency order: the updates, then the predicts going inverse; the
// predicts, the updates, then the inner steps going forward. A lift left
// here has every reader left here too, and reads only nodes whose own lifts
// are done, so the order is the one the single-chunk wavefront keeps.
func (lf *lifter) borders(v view, ch chunking) {
	c := v.n[0]
	if lf.fwd {
		for o := 1; o < c; o += 2 {
			if !lf.ownsPredict(ch, o) {
				lf.predict(v, o)
			}
		}
	}
	for e := 0; e < c; e += 2 {
		if !lf.ownsUpdate(ch, e) {
			lf.update(v, e)
		}
	}
	if lf.fwd {
		for k := 0; k < c; k++ {
			if !lf.ownsStep(ch, k) {
				lf.step(v.slab(k))
			}
		}
		return
	}
	for o := 1; o < c; o += 2 {
		if !lf.ownsPredict(ch, o) {
			lf.predict(v, o)
		}
	}
}

// predict lifts odd slab o of v from its even neighbours; the last slab,
// without a right neighbour, is predicted from the left alone.
func (lf *lifter) predict(v view, o int) {
	s := v.stride[0]
	c, b := v.off+o*s, -1
	if o+1 < v.n[0] {
		b = c + s
	}
	lf.rows(v.n[1:], v.stride[1:], c, c-s, b, false)
}

// update lifts even slab e of v from the odd neighbours it has, when the
// options enable the update.
func (lf *lifter) update(v view, e int) {
	if !lf.opt.Update {
		return
	}
	s := v.stride[0]
	c, a, b := v.off+e*s, -1, -1
	if e > 0 {
		a = c - s
	}
	if e+1 < v.n[0] {
		b = c + s
	}
	if a < 0 {
		a, b = b, -1
	}
	lf.rows(v.n[1:], v.stride[1:], c, a, b, true)
}

// rows applies one axis-0 lift to the slab at flat offset c, whose active
// nodes have n and stride, from the slabs at a and b (b < 0: none), one row
// op per last-axis row. At h = 1 a slab is contiguous and is one row.
func (lf *lifter) rows(n, stride []int, c, a, b int, update bool) {
	if lf.h == 1 {
		width := 1
		for _, k := range n {
			width *= k
		}
		lf.row(c, a, b, width, update)
		return
	}
	if len(n) == 1 {
		lf.row(c, a, b, (n[0]-1)*lf.h+1, update)
		return
	}
	for j := 0; j < n[0]; j++ {
		d, bj := j*stride[0], -1
		if b >= 0 {
			bj = b + d
		}
		lf.rows(n[1:], stride[1:], c+d, a+d, bj, update)
	}
}

// row lifts the width-long row at c from the rows at a and b (b < 0: none),
// every h-th element active.
func (lf *lifter) row(c, a, b, width int, update bool) {
	cs, as := lf.data[c:c+width], lf.data[a:a+width]
	var bs []float64
	if b >= 0 {
		bs = lf.data[b : b+width]
	}
	if update {
		updateRow(cs, as, bs, lf.h, lf.opt.UpdateWeight, lf.fwd)
	} else {
		predictRow(cs, as, bs, lf.h, lf.fwd)
	}
}

// lines4 reports whether the inverse lifts last-axis lines of count nodes
// four at a time, on the AVX2 kernel: lines of fewer than two nodes stay
// in Go, and so do four lines that would not fit one preemptible call.
func lines4(count int) bool {
	return cpufeat.AVX2 && count >= 2 && 4*count <= liftChunk
}

// line lifts the rank-1 view v, a line of the last axis.
func (lf *lifter) line(v view) {
	count := v.n[0]
	if count < 2 {
		return
	}
	if lf.h == 1 {
		x := lf.data[v.off : v.off+count]
		if lf.fwd {
			forwardLine(x, lf.opt)
		} else {
			inverseLine(x, lf.opt)
		}
		return
	}
	if lf.fwd {
		predictForward(lf.data, v.off, v.stride[0], count)
		if lf.opt.Update {
			updateForward(lf.data, v.off, v.stride[0], count, lf.opt.UpdateWeight)
		}
		return
	}
	if lf.opt.Update {
		updateInverse(lf.data, v.off, v.stride[0], count, lf.opt.UpdateWeight)
	}
	predictInverse(lf.data, v.off, v.stride[0], count)
}

// forwardLine is the forward step along a contiguous line of at least two
// nodes in one walk: each odd node is predicted, then the even node before
// it, whose both neighbours are now predicted, updated. The expressions are
// predictForward's and updateForward's, term for term. The walk slides a
// window y = x[j-2 : j+2] over odd j, so its constant indices need no bounds
// checks.
func forwardLine(x []float64, opt codec.Options) {
	w := opt.UpdateWeight
	if len(x) > 2 {
		x[1] -= float64(0.5 * (x[0] + x[2]))
	} else {
		x[1] -= x[0]
	}
	if opt.Update {
		var sum float64
		sum += x[1]
		x[0] += float64(w * sum)
	}
	y := x[1:]
	for ; len(y) >= 4; y = y[2:] {
		y[2] -= float64(0.5 * (y[1] + y[3]))
		if opt.Update {
			var sum float64
			sum += y[0]
			sum += y[2]
			y[1] += float64(w * sum)
		}
	}
	switch {
	case len(y) == 3: // n even: the last odd node has no right neighbour
		y[2] -= y[1]
		if opt.Update {
			var sum float64
			sum += y[0]
			sum += y[2]
			y[1] += float64(w * sum)
		}
	case len(y) == 2 && opt.Update: // n odd: the last even node has no right neighbour
		var sum float64
		sum += y[0]
		y[1] += float64(w * sum)
	}
}

// inverseLine is the inverse step along a contiguous line of at least two
// nodes in one walk: each even node is updated, then the odd node before it,
// whose both neighbours are now updated, predicted. The expressions are
// updateInverse's and predictInverse's, term for term, over a window
// y = x[j-2 : j+2] sliding over even j.
func inverseLine(x []float64, opt codec.Options) {
	w := opt.UpdateWeight
	if opt.Update {
		var sum float64
		sum += x[1]
		x[0] -= float64(w * sum)
	}
	y := x
	for ; len(y) >= 4; y = y[2:] {
		if opt.Update {
			var sum float64
			sum += y[1]
			sum += y[3]
			y[2] -= float64(w * sum)
		}
		y[1] += float64(0.5 * (y[0] + y[2]))
	}
	if len(y) == 3 { // n odd: the last even node has no right neighbour
		if opt.Update {
			var sum float64
			sum += y[1]
			y[2] -= float64(w * sum)
		}
		y[1] += float64(0.5 * (y[0] + y[2]))
		return
	}
	y[1] += y[0] // n even: the last odd node has no right neighbour
}

// predictRow is the predict step of one odd row c between its even
// neighbours a and b, every h-th element active; a nil b is the boundary row
// predicted from the left neighbour alone. The expressions are the line
// kernels', term for term; the direction is chosen outside the interior
// loops because they are where a step spends its time, and at h = 1 the
// loops range over the row so the compiler drops their bounds checks.
func predictRow(c, a, b []float64, h int, fwd bool) {
	if h == 1 {
		predictRow1(c, a, b, fwd)
		return
	}
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
			c[i] -= float64(0.5 * (a[i] + b[i]))
		}
	default:
		b = b[:len(c)]
		for i := 0; i < len(c); i += h {
			c[i] += float64(0.5 * (a[i] + b[i]))
		}
	}
}

// predictRow1 is predictRow at h = 1, where the rows are contiguous: on
// CPUs with AVX2 the assembly kernel lifts all but the last len(c) % 8
// elements, and predictRow1Go the rest.
func predictRow1(c, a, b []float64, fwd bool) {
	if cpufeat.AVX2 {
		n := predictAVX2(c, a, b, fwd)
		c, a = c[n:], a[n:]
		if b != nil {
			b = b[n:]
		}
	}
	predictRow1Go(c, a, b, fwd)
}

// predictRow1Go is predictRow1 in Go alone.
func predictRow1Go(c, a, b []float64, fwd bool) {
	a = a[:len(c)]
	switch {
	case b == nil && fwd:
		for i := range c {
			c[i] -= a[i]
		}
	case b == nil:
		for i := range c {
			c[i] += a[i]
		}
	case fwd:
		b = b[:len(c)]
		for i := range c {
			c[i] -= float64(0.5 * (a[i] + b[i]))
		}
	default:
		b = b[:len(c)]
		for i := range c {
			c[i] += float64(0.5 * (a[i] + b[i]))
		}
	}
}

// updateRow is the update step of one even row c between its odd neighbours
// a and b, every h-th element active; a nil b is a boundary row with the one
// neighbour a. sum starts from zero and adds left then right, exactly as the
// line kernels do (0 + x is not x when x is −0).
func updateRow(c, a, b []float64, h int, w float64, fwd bool) {
	if h == 1 {
		updateRow1(c, a, b, w, fwd)
		return
	}
	a = a[:len(c)]
	switch {
	case b == nil:
		for i := 0; i < len(c); i += h {
			var sum float64
			sum += a[i]
			if fwd {
				c[i] += float64(w * sum)
			} else {
				c[i] -= float64(w * sum)
			}
		}
	case fwd:
		b = b[:len(c)]
		for i := 0; i < len(c); i += h {
			var sum float64
			sum += a[i]
			sum += b[i]
			c[i] += float64(w * sum)
		}
	default:
		b = b[:len(c)]
		for i := 0; i < len(c); i += h {
			var sum float64
			sum += a[i]
			sum += b[i]
			c[i] -= float64(w * sum)
		}
	}
}

// updateRow1 is predictRow1 for updateRow.
func updateRow1(c, a, b []float64, w float64, fwd bool) {
	if cpufeat.AVX2 {
		n := updateAVX2(c, a, b, w, fwd)
		c, a = c[n:], a[n:]
		if b != nil {
			b = b[n:]
		}
	}
	updateRow1Go(c, a, b, w, fwd)
}

// updateRow1Go is updateRow1 in Go alone.
func updateRow1Go(c, a, b []float64, w float64, fwd bool) {
	a = a[:len(c)]
	switch {
	case b == nil && fwd:
		for i := range c {
			var sum float64
			sum += a[i]
			c[i] += float64(w * sum)
		}
	case b == nil:
		for i := range c {
			var sum float64
			sum += a[i]
			c[i] -= float64(w * sum)
		}
	case fwd:
		b = b[:len(c)]
		for i := range c {
			var sum float64
			sum += a[i]
			sum += b[i]
			c[i] += float64(w * sum)
		}
	default:
		b = b[:len(c)]
		for i := range c {
			var sum float64
			sum += a[i]
			sum += b[i]
			c[i] -= float64(w * sum)
		}
	}
}

// predictForward replaces odd active nodes with their interpolation
// residual.
func predictForward(data []float64, base, stride, count int) {
	for j := 1; j < count; j += 2 {
		var pred float64
		if j+1 < count {
			pred = float64(0.5 * (data[base+(j-1)*stride] + data[base+(j+1)*stride]))
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
			pred = float64(0.5 * (data[base+(j-1)*stride] + data[base+(j+1)*stride]))
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
		data[base+j*stride] += float64(w * sum)
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
		data[base+j*stride] -= float64(w * sum)
	}
}
