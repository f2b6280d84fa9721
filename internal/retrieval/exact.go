package retrieval

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ExactPlan returns the plan with the fewest stored bytes whose bound is at
// most tol: the minimum of the retrieval size D (Eq. 1) over every plane
// assignment the bound accepts, not an approximation of it. held, when
// non-nil, gives per-level plane counts the plan may not go below — the
// planes a session already holds — and those planes cost nothing, so the
// plan spends the fewest new bytes. Among plans of equal bytes the one with
// the smallest bound wins. When no assignment meets tol the plan is where
// MGARD's greedy walk from held ends (§II-C): every plane that still lowers
// a level's error, so an unreachable reply is the greedy's.
//
// Feasibility is Bound.At itself — the same sum in the same order — so a
// returned plan's EstimatedError is ≤ tol bit for bit. A plan of a
// memoized bound (Bound.Memo) reads an index built once: a fresh plan
// always, a plan above held planes whenever the fresh minimum keeps them,
// as a session refining to a tighter tolerance finds. Any other plan
// builds an index above held for the call. BoundEvals counts the index
// points probed.
func ExactPlan(levels []LevelInfo, bound Bound, tol float64, held []int) (Plan, error) {
	if tol <= 0 || math.IsNaN(tol) {
		return Plan{}, fmt.Errorf("retrieval: tolerance %g must be positive", tol)
	}
	if held != nil && len(held) != len(levels) {
		return Plan{}, fmt.Errorf("retrieval: %d held plane counts for %d levels", len(held), len(levels))
	}
	for l, li := range levels {
		if err := li.validate(); err != nil {
			return Plan{}, err
		}
		if held != nil {
			if b := held[l]; b < 0 || b > li.planes() {
				return Plan{}, fmt.Errorf("retrieval: held level %d plane count %d out of range", l, b)
			}
		}
	}
	if err := bound.check(levels); err != nil {
		return Plan{}, err
	}
	if bound.C < 0 || math.IsNaN(bound.C) || math.IsInf(bound.C, 0) {
		return Plan{}, fmt.Errorf("retrieval: bound constant %g must be finite and non-negative", bound.C)
	}
	lo := held
	if lo == nil {
		lo = make([]int, len(levels))
	}
	var planes []int
	var probes int64
	build := bound.memo == nil
	if !build {
		// The fresh minimum is the minimum above held whenever it keeps
		// every held plane: the plans above held are a subset, and held
		// planes lower the bytes of every plan that keeps them alike. When
		// no plan clears tol, none above held does.
		planes, probes = bound.memo.get(levels, bound).plan(tol)
		if planes != nil && !keeps(planes, lo) {
			planes, build = nil, true
		}
	}
	if build {
		var n int64
		planes, n = buildIndex(levels, bound, lo).plan(tol)
		probes += n
	}
	if planes == nil {
		// No vector clears tol, so the greedy walk from held never stops
		// on the bound: it ends where extend has nothing left to take.
		g, err := RefinePlan(levels, lo, bound, tol)
		if err != nil {
			return Plan{}, err
		}
		planes = g.Planes
	}
	plan, err := PlanForPlanes(levels, planes)
	if err != nil {
		return Plan{}, err
	}
	plan.EstimatedError = bound.At(planes)
	plan.BoundEvals = probes
	return plan, nil
}

// keeps reports whether planes holds at least lo[l] planes on every level l.
func keeps(planes, lo []int) bool {
	for l, b := range lo {
		if planes[l] < b {
			return false
		}
	}
	return true
}

// Memo returns the bound with an index memo: the first fresh ExactPlan of
// it (or of any copy) builds the plan index, and every later fresh plan over
// the same levels and table reads it. Memoize a table that is planned many
// times, as a header's Bound is; the table's rows must not change after.
func (b Bound) Memo() Bound {
	b.memo = new(indexMemo)
	return b
}

// indexMemo is a bound's lazily built fresh-plan index.
type indexMemo struct {
	once sync.Once
	ix   *index
}

// get returns the memoized index, building it on first use. A call whose
// levels or table are not the ones the index was built over — a copied
// bound whose C or rows were replaced — gets an index of its own.
func (m *indexMemo) get(levels []LevelInfo, bound Bound) *index {
	fresh := make([]int, len(levels))
	m.once.Do(func() { m.ix = buildIndex(levels, bound, fresh) })
	if !m.ix.over(levels, bound) {
		return buildIndex(levels, bound, fresh)
	}
	return m.ix
}

// An index answers min-byte queries by meet in the middle. Pruned stages
// hold the Pareto frontier of levels 0..L-2 — every prefix assignment not
// beaten in both bytes and partial bound by another — built level by level
// in Bound.At's summation order, and last holds the finest level's own
// frontier. A query pairs each option of the last level with the cheapest
// prefix that clears the tolerance, found by binary search.
//
// Pruning is exact in floating point: a prefix dominated in (bytes, partial
// sum) stays dominated under every completion, because each later step
// (x+t, then C·x) is monotone in x. So the frontier loses no plan the
// brute-force minimum could pick.
type index struct {
	c      float64
	sizes  [][]int64   // the levels' PlaneSizes the index was built over
	rows   [][]float64 // the bound's rows likewise
	stages [][]node    // stages[k] is the frontier after level k-1; stages[0] is the empty prefix
	last   []option
}

// node is one frontier point: its bytes and partial bound sum, the point of
// the previous stage it extends and the plane count it adds.
type node struct {
	cost int64
	sum  float64
	prev int32
	b    int32
}

// option is one level's plane count with its bytes past the held planes
// and its bound term.
type option struct {
	cost int64
	t    float64
	b    int
}

// buildIndex builds the index over levels and bound with per-level minimum
// plane counts lo, where plane costs start.
func buildIndex(levels []LevelInfo, bound Bound, lo []int) *index {
	ix := &index{
		c:      bound.C,
		sizes:  make([][]int64, len(levels)),
		rows:   bound.T,
		stages: [][]node{{{}}},
	}
	for l, li := range levels {
		ix.sizes[l] = li.PlaneSizes
	}
	if len(levels) == 0 {
		return ix
	}
	var h mergeHeap
	for l := range len(levels) - 1 {
		ix.stages = append(ix.stages, ix.merge(&h, options(levels[l], bound.T[l], lo[l])))
	}
	ix.last = options(levels[len(levels)-1], bound.T[len(levels)-1], lo[len(levels)-1])
	return ix
}

// over reports whether the index was built over these levels and table.
func (ix *index) over(levels []LevelInfo, bound Bound) bool {
	if bound.C != ix.c || len(levels) != len(ix.sizes) {
		return false
	}
	for l, li := range levels {
		if !sameSlice(li.PlaneSizes, ix.sizes[l]) || !sameSlice(bound.T[l], ix.rows[l]) {
			return false
		}
	}
	return true
}

func sameSlice[E any](a, b []E) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// options returns a level's frontier: plane counts from lo up, in rising
// bytes, each with a strictly smaller term than every cheaper one. A NaN
// term is never an option; at equal bytes the smaller term wins, and at an
// equal term too, the fewer planes.
func options(li LevelInfo, row []float64, lo int) []option {
	opts := make([]option, 0, len(row)-lo)
	var cost int64
	for b := lo; b < len(row); b++ {
		if b > lo {
			cost += li.PlaneSizes[b-1]
		}
		t := row[b]
		switch n := len(opts); {
		case math.IsNaN(t):
		case n == 0:
			opts = append(opts, option{cost, t, b})
		case t < opts[n-1].t && cost == opts[n-1].cost:
			opts[n-1] = option{cost, t, b}
		case t < opts[n-1].t:
			opts = append(opts, option{cost, t, b})
		}
	}
	return opts
}

// merge extends the last stage by the next level's options and returns the new
// frontier. Each option is a stream over the stage in rising bytes (and
// falling sum), so a heap merges the streams in (bytes, sum) order and a
// point is kept when its sum is below every cheaper point's. A stream
// whose head is beaten skips ahead by binary search to the first point that
// could still be kept.
func (ix *index) merge(h *mergeHeap, opts []option) []node {
	prev := ix.stages[len(ix.stages)-1]
	out := make([]node, 0, len(prev)+len(opts))
	best := math.Inf(1)
	h.reset(prev, opts)
	for j := range opts {
		heap.Push(h, cursor{j: j, i: 0})
	}
	for h.Len() > 0 {
		top := heap.Pop(h).(cursor)
		p, o := prev[top.i], opts[top.j]
		if sum := p.sum + o.t; sum < best {
			best = sum
			out = append(out, node{cost: p.cost + o.cost, sum: sum, prev: int32(top.i), b: int32(o.b)})
		}
		// The first later point of this stream whose sum beats best.
		t := o.t
		next := top.i + 1 + sort.Search(len(prev)-top.i-1, func(k int) bool { return prev[top.i+1+k].sum+t < best })
		if next < len(prev) {
			heap.Push(h, cursor{j: top.j, i: next})
		}
	}
	return out
}

// plan answers one query: the cheapest (prefix, last option) pair whose
// bound C·(sum+t) is ≤ tol, ties broken by bound, or nil
// when no pair clears. It returns the plane counts and the index points
// probed.
func (ix *index) plan(tol float64) ([]int, int64) {
	var probes int64
	if len(ix.sizes) == 0 {
		return []int{}, 0
	}
	prefix := ix.stages[len(ix.stages)-1]
	bestI, bestJ := -1, -1
	var bestCost int64
	var bestEst float64
	for j, o := range ix.last {
		if bestI >= 0 && o.cost > bestCost {
			break // options rise in bytes: no later one is cheaper
		}
		i := sort.Search(len(prefix), func(i int) bool {
			probes++
			return ix.c*(prefix[i].sum+o.t) <= tol
		})
		if i == len(prefix) {
			continue
		}
		cost, est := prefix[i].cost+o.cost, ix.c*(prefix[i].sum+o.t)
		if bestI < 0 || cost < bestCost || cost == bestCost && est < bestEst {
			bestI, bestJ, bestCost, bestEst = i, j, cost, est
		}
	}
	if bestI < 0 {
		return nil, probes
	}
	return ix.planes(bestI, bestJ), probes
}

// planes reads the plane vector of prefix point i of the final stage
// followed by last option j.
func (ix *index) planes(i, j int) []int {
	out := make([]int, len(ix.sizes))
	out[len(out)-1] = ix.last[j].b
	ix.prefix(len(ix.stages)-1, i, out)
	return out
}

// prefix writes the plane counts of point i of stage k into out[:k].
func (ix *index) prefix(k, i int, out []int) {
	for ; k > 0; k-- {
		n := ix.stages[k][i]
		out[k-1] = int(n.b)
		i = int(n.prev)
	}
}

// cursor is one merge stream's head: prefix point i extended by option j.
type cursor struct{ i, j int }

// mergeHeap is a min-heap (container/heap) of stream heads ordered by
// bytes, then sum, over one merge's stage and options.
type mergeHeap struct {
	prev  []node
	opts  []option
	items []cursor
}

func (h *mergeHeap) reset(prev []node, opts []option) {
	h.prev, h.opts, h.items = prev, opts, h.items[:0]
}

// Len is heap.Interface's.
func (h *mergeHeap) Len() int { return len(h.items) }

// Swap is heap.Interface's.
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// Push is heap.Interface's.
func (h *mergeHeap) Push(x any) { h.items = append(h.items, x.(cursor)) }

// Pop is heap.Interface's.
func (h *mergeHeap) Pop() any {
	c := h.items[len(h.items)-1]
	h.items = h.items[:len(h.items)-1]
	return c
}

// Less orders two stream heads by bytes, then sum.
func (h *mergeHeap) Less(i, j int) bool {
	x, y := h.items[i], h.items[j]
	px, py := h.prev[x.i], h.prev[y.i]
	cx, cy := px.cost+h.opts[x.j].cost, py.cost+h.opts[y.j].cost
	if cx != cy {
		return cx < cy
	}
	return px.sum+h.opts[x.j].t < py.sum+h.opts[y.j].t
}
