// Package interleave owns the index bookkeeping between an N-dimensional
// grid and the linearized per-level coefficient streams used by the
// bit-plane encoder (the paper's "interleaver", §II-B).
//
// A decomposition with L coefficient levels assigns every grid node to
// exactly one level:
//
//   - level 0 (the "highest" level in the paper's terminology, with the
//     lowest resolution) holds the nodes of the coarsest grid — those whose
//     index is a multiple of 2^(L-1) along every axis;
//   - level l (1 ≤ l < L) holds the detail nodes introduced when refining
//     from step L-l to step L-l-1 — nodes active on the 2^(L-1-l) grid that
//     are not on the 2^(L-l) grid.
//
// Within a level, nodes are ordered by row-major scan of the full grid, so
// the mapping is deterministic and reproducible across processes.
package interleave

import (
	"fmt"
	"slices"
	"sync"
)

// Plan holds the precomputed grid↔level index maps for one (dims, levels)
// configuration. Plans are immutable after construction and safe for
// concurrent use; NewPlan hands the same *Plan to every caller of a shape
// it still remembers.
type Plan struct {
	dims   []int
	levels int
	// indices[l] lists the flat grid offsets of level l's nodes in
	// row-major scan order.
	indices [][]int
}

// planMemoSize bounds how many shapes NewPlan remembers. A plan costs 8
// bytes per grid node (one offset): 17.2 MB at 129³, so four remembered
// shapes pin at most ≈ 69 MB at that size. Four covers what one process
// works on at once — a server's fields (usually one shape), or a tiled
// compress's interior and tail slabs — without letting a process that walks
// through many shapes keep them all.
const planMemoSize = 4

// planEntry is one remembered shape. once makes concurrent first callers of
// a shape wait for, and then share, a single build.
type planEntry struct {
	dims   []int
	levels int
	once   sync.Once
	plan   *Plan
}

// planMemo holds the most recently requested shapes, newest first.
var planMemo struct {
	sync.Mutex
	entries []*planEntry
}

// NewPlan returns the index maps for a grid with the given dimensions and
// number of coefficient levels. levels must be in [1, 30] and dims non-empty
// with positive extents. The plan is shared: a shape among the planMemoSize
// most recently requested ones is built once per process, whoever asks.
func NewPlan(dims []int, levels int) (*Plan, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("interleave: empty dims")
	}
	if levels < 1 || levels > 30 {
		return nil, fmt.Errorf("interleave: levels %d out of range [1,30]", levels)
	}
	for _, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("interleave: non-positive dimension %d", d)
		}
	}
	e := remember(dims, levels)
	e.once.Do(func() { e.plan = buildPlan(e.dims, e.levels) })
	return e.plan, nil
}

// remember returns the memo entry of a shape, moving it to the front and
// dropping the least recently requested entry beyond the bound. A dropped
// entry stays valid for the callers that already hold it.
func remember(dims []int, levels int) *planEntry {
	planMemo.Lock()
	defer planMemo.Unlock()
	es := planMemo.entries
	for i, e := range es {
		if e.levels == levels && slices.Equal(e.dims, dims) {
			copy(es[1:i+1], es[:i])
			es[0] = e
			return e
		}
	}
	e := &planEntry{dims: append([]int(nil), dims...), levels: levels}
	if len(es) < planMemoSize {
		es = append(es, nil)
	}
	copy(es[1:], es)
	es[0] = e
	planMemo.entries = es
	return e
}

// buildPlan computes the maps of a validated shape in one row-major sweep.
// A node's level depends only on the smallest per-axis trailing
// divisibility, so that is tabulated per axis, folded over the outer axes
// once per row, and combined with the last axis' table in the inner loop.
// Level sizes are known up front — step s keeps ∏((n−1)>>s + 1) nodes —
// so every level's index list is a pre-sized window of one allocation.
func buildPlan(dims []int, levels int) *Plan {
	rank := len(dims)
	top := levels - 1
	div := make([][]uint8, rank)
	for d, n := range dims {
		div[d] = make([]uint8, n)
		for i := range div[d] {
			div[d][i] = uint8(trailingDivisibility(i, top))
		}
	}
	active := func(s int) int {
		c := 1
		for _, n := range dims {
			c *= (n-1)>>s + 1
		}
		return c
	}
	n := active(0)
	p := &Plan{dims: dims, levels: levels, indices: make([][]int, levels)}
	// all is every level's index list back to back; next[l] is where level
	// l's next node goes.
	all := make([]int, n)
	next := make([]int, levels)
	for l, off := 0, 0; l < levels; l++ {
		size := active(top - l)
		if l > 0 {
			size -= active(top - l + 1)
		}
		next[l] = off
		p.indices[l] = all[off : off+size : off+size]
		off += size
	}

	last := div[rank-1]
	idx := make([]int, rank-1)
	for flat := 0; flat < n; flat += len(last) {
		outer := uint8(top)
		for d, i := range idx {
			outer = min(outer, div[d][i])
		}
		if outer == 0 {
			// An odd coordinate on an outer axis puts the whole row on the
			// finest level.
			fine := all[next[top] : next[top]+len(last)]
			for i := range fine {
				fine[i] = flat + i
			}
			next[top] += len(last)
		} else {
			for i, s := range last {
				l := uint8(top) - min(outer, s)
				all[next[l]] = flat + i
				next[l]++
			}
		}
		// Advance the row-major multi-index of the outer axes.
		for d := rank - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
	return p
}

// trailingDivisibility returns the largest s ≤ cap such that i is a multiple
// of 2^s. For i == 0 it returns cap (zero is on every grid).
func trailingDivisibility(i, max int) int {
	if i == 0 {
		return max
	}
	s := 0
	for i&1 == 0 && s < max {
		i >>= 1
		s++
	}
	return s
}

// Dims returns the grid dimensions of the plan. The returned slice is the
// plan's own and must not be modified.
func (p *Plan) Dims() []int { return p.dims }

// Levels returns the number of coefficient levels L.
func (p *Plan) Levels() int { return p.levels }

// LevelSizes returns the number of nodes on each level.
func (p *Plan) LevelSizes() []int {
	sizes := make([]int, p.levels)
	for l, ix := range p.indices {
		sizes[l] = len(ix)
	}
	return sizes
}

// Indices returns the flat grid offsets of level l's nodes, in the
// deterministic stream order. The returned slice must not be modified.
func (p *Plan) Indices(l int) []int { return p.indices[l] }

// Extract gathers the level-l coefficients from the in-place transformed
// grid data into dst, which must have length LevelSizes()[l]. It returns dst
// for convenience; if dst is nil a new slice is allocated.
func (p *Plan) Extract(data []float64, l int, dst []float64) []float64 {
	ix := p.indices[l]
	if dst == nil {
		dst = make([]float64, len(ix))
	}
	if len(dst) != len(ix) {
		panic(fmt.Sprintf("interleave: Extract dst length %d, want %d", len(dst), len(ix)))
	}
	for i, off := range ix {
		dst[i] = data[off]
	}
	return dst
}

// Inject scatters the level-l coefficient stream src back into the grid
// data at the level's node positions. src must have length LevelSizes()[l].
func (p *Plan) Inject(data []float64, l int, src []float64) {
	ix := p.indices[l]
	if len(src) != len(ix) {
		panic(fmt.Sprintf("interleave: Inject src length %d, want %d", len(src), len(ix)))
	}
	for i, off := range ix {
		data[off] = src[i]
	}
}
