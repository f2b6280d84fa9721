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
//
// A Plan records that order once, as a run schedule: for each last-axis
// row, each level's nodes in the row are one evenly spaced run (grid
// offset, stride, count, first stream index) — 22,325 runs for a 129³ grid
// of 5 levels, against 2.15 M node offsets. A reader places every level
// with one row-major pass over the runs (bitplane.Decode), so each row is
// written while it sits in cache; a per-level walk (Extract, Inject, the
// interp backend's prediction) visits the level's runs alone.
package interleave

import (
	"fmt"
	"slices"
	"sync"
)

// Plan holds the precomputed grid↔level maps for one (dims, levels)
// configuration. Plans are immutable after construction and safe for
// concurrent use; NewPlan hands the same *Plan to every caller of a shape
// it still remembers.
//
// The plan's one representation of order is its run schedule (Runs): each
// last-axis row of the grid, in row-major order, lists each level's nodes
// in that row as one evenly spaced run.
type Plan struct {
	dims   []int
	levels int
	sizes  []int
	// runs is the run schedule, rows in row-major order and a row's runs
	// coarsest level first.
	runs []Run
}

// Run is one level's nodes within one last-axis row of the grid: Count
// nodes at flat offsets Off, Off+Stride, …, Off+(Count−1)·Stride, which
// are entries First, First+1, … of level Level's stream. Stride is a power
// of two (1 for a run of one node).
type Run struct {
	Off, First, Count, Stride, Level int
}

// planMemoSize bounds how many shapes NewPlan remembers. A plan's run
// schedule costs one 40-byte Run per (row, level) pair a row holds —
// 22,325 runs, 0.9 MB at 129³ with 5 levels — so four remembered shapes pin
// ≈ 3.6 MB at that size. Four covers what one process works on at once —
// a server's fields (usually one shape), or a tiled compress's interior and
// tail slabs — without letting a process that walks through many shapes
// keep them all.
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

// NewPlan returns the level maps for a grid with the given dimensions and
// number of coefficient levels. levels must be in [1, 30] and dims non-empty
// with positive extents. The plan is shared: a shape among the planMemoSize
// most recently requested ones is built once per process, whoever asks.
func NewPlan(dims []int, levels int) (*Plan, error) {
	if err := validate(dims, levels); err != nil {
		return nil, err
	}
	e := remember(dims, levels)
	e.once.Do(func() { e.plan = buildPlan(e.dims, e.levels) })
	return e.plan, nil
}

// validate is the one shape check: levels in [1, 30], dims non-empty with
// positive extents.
func validate(dims []int, levels int) error {
	if len(dims) == 0 {
		return fmt.Errorf("interleave: empty dims")
	}
	if levels < 1 || levels > 30 {
		return fmt.Errorf("interleave: levels %d out of range [1,30]", levels)
	}
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("interleave: non-positive dimension %d", d)
		}
	}
	return nil
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

// LevelSizes returns the number of nodes on each level of a grid with the
// given dims and levels, coarsest first — a plan's LevelSizes without its
// index lists. Step s keeps ∏((n−1)>>s + 1) nodes, and level l holds the
// nodes of step levels−1−l that the next coarser step does not.
func LevelSizes(dims []int, levels int) ([]int, error) {
	if err := validate(dims, levels); err != nil {
		return nil, err
	}
	return levelSizes(dims, levels), nil
}

func levelSizes(dims []int, levels int) []int {
	active := func(s int) int {
		c := 1
		for _, n := range dims {
			c *= (n-1)>>s + 1
		}
		return c
	}
	top := levels - 1
	sizes := make([]int, levels)
	for l := range sizes {
		sizes[l] = active(top - l)
		if l > 0 {
			sizes[l] -= active(top - l + 1)
		}
	}
	return sizes
}

// Walk visits every node of a grid with the given dims and levels once, in
// row-major order, one last-axis row per fn call: the row's nodes are flat
// … flat+len(row)−1, and node flat+i is on level row[i]. fine reports a row
// that lies wholly on the finest level (an odd coordinate on an outer axis).
// row is shared between calls and must not be modified. The shape must be
// one LevelSizes accepts. Walk is the order every level stream is in: a
// plan's run schedule and a decomposition's level split both come from it.
//
// A node's level depends only on the smallest per-axis trailing
// divisibility, so that is tabulated per axis and folded over the outer
// axes once per row; the rows that can occur — one per folded value, built
// on first use — map each last-axis node straight to its level.
func Walk(dims []int, levels int, fn func(flat int, row []uint8, fine bool)) {
	rank := len(dims)
	top := uint8(levels - 1)
	div := make([][]uint8, rank)
	for d, n := range dims {
		div[d] = make([]uint8, n)
		for i := range div[d] {
			div[d][i] = uint8(trailingDivisibility(i, int(top)))
		}
	}
	last := div[rank-1]
	rows := make([][]uint8, top+1)
	n := 1
	for _, d := range dims {
		n *= d
	}
	idx := make([]int, rank-1)
	for flat := 0; flat < n; flat += len(last) {
		outer := top
		for d, i := range idx {
			outer = min(outer, div[d][i])
		}
		row := rows[outer]
		if row == nil {
			row = make([]uint8, len(last))
			for i, s := range last {
				row[i] = top - min(outer, s)
			}
			rows[outer] = row
		}
		fn(flat, row, outer == 0)
		// Advance the row-major multi-index of the outer axes.
		for d := rank - 2; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// buildPlan computes the run schedule of a validated shape in one Walk. A
// row's level pattern depends only on the level of its node 0 (the row's
// coarsest: a node's level is set by the smallest per-axis divisibility,
// and 0 is divisible by every step), so each pattern's runs are derived
// once, from the first row that has it, and shifted to every later one.
func buildPlan(dims []int, levels int) *Plan {
	p := &Plan{dims: dims, levels: levels, sizes: levelSizes(dims, levels)}
	next := make([]int, levels)
	patterns := make([][]Run, levels)
	Walk(dims, levels, func(flat int, row []uint8, _ bool) {
		pat := patterns[row[0]]
		if pat == nil {
			pat = rowRuns(row, levels)
			patterns[row[0]] = pat
		}
		for _, r := range pat {
			r.Off += flat
			r.First = next[r.Level]
			next[r.Level] += r.Count
			p.runs = append(p.runs, r)
		}
	})
	// The appends overshoot; keep an exact-size copy.
	p.runs = slices.Clone(p.runs)
	return p
}

// rowRuns splits one row of Walk's node levels into one run per level
// present, coarsest first, with offsets relative to the row's start. Within
// a row a level's nodes are the multiples of one power of two (the row's
// coarsest level) or its odd multiples (every finer one), so they are
// evenly spaced; rowRuns panics if they are not.
func rowRuns(row []uint8, levels int) []Run {
	var runs []Run
	for l := 0; l < levels; l++ {
		r := Run{Level: l, Stride: 1}
		for i, x := range row {
			if int(x) != l {
				continue
			}
			switch {
			case r.Count == 0:
				r.Off = i
			case r.Count == 1:
				r.Stride = i - r.Off
			case i != r.Off+r.Count*r.Stride:
				panic(fmt.Sprintf("interleave: level %d nodes of a row are not evenly spaced", l))
			}
			r.Count++
		}
		if r.Count > 0 {
			runs = append(runs, r)
		}
	}
	return runs
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
func (p *Plan) LevelSizes() []int { return slices.Clone(p.sizes) }

// Runs returns the plan's run schedule: every grid node in exactly one
// run, rows in row-major order, and within a row one run per level present,
// coarsest first. A level's runs, in schedule order, list its nodes in
// stream order. The returned slice must not be modified.
func (p *Plan) Runs() []Run { return p.runs }

// Extract gathers the level-l coefficients from the in-place transformed
// grid data into dst, which must have length LevelSizes()[l], walking the
// level's runs. It returns dst for convenience; if dst is nil a new slice
// is allocated.
func (p *Plan) Extract(data []float64, l int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, p.sizes[l])
	}
	if len(dst) != p.sizes[l] {
		panic(fmt.Sprintf("interleave: Extract dst length %d, want %d", len(dst), p.sizes[l]))
	}
	for _, r := range p.runs {
		if r.Level != l {
			continue
		}
		out := dst[r.First : r.First+r.Count]
		for j := range out {
			out[j] = data[r.Off+j*r.Stride]
		}
	}
	return dst
}

// Inject scatters the level-l coefficient stream src back into the grid
// data at the level's node positions, walking the level's runs. src must
// have length LevelSizes()[l].
func (p *Plan) Inject(data []float64, l int, src []float64) {
	if len(src) != p.sizes[l] {
		panic(fmt.Sprintf("interleave: Inject src length %d, want %d", len(src), p.sizes[l]))
	}
	for _, r := range p.runs {
		if r.Level != l {
			continue
		}
		for j, v := range src[r.First : r.First+r.Count] {
			data[r.Off+j*r.Stride] = v
		}
	}
}
