package interleave

import (
	"fmt"
	"math/bits"
	"sync"
	"testing"
)

// levelOfIndex is the definition buildPlan's index lists implement, kept
// here as the per-node reference: a node is active at refinement step s iff
// every axis index is a multiple of 2^s; its introduction step is the
// largest such s (capped at levels-1) and its level is levels-1-s, so that
// level 0 is the coarsest grid.
func levelOfIndex(idx []int, levels int) int {
	s := levels - 1
	for _, i := range idx {
		v := trailingDivisibility(i, levels-1)
		if v < s {
			s = v
		}
	}
	return levels - 1 - s
}

// referenceIndices builds the index lists straight from the definition:
// levelOfIndex per node, row-major order within a level.
func referenceIndices(dims []int, levels int) [][]int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	indices := make([][]int, levels)
	idx := make([]int, len(dims))
	for flat := 0; flat < n; flat++ {
		l := levelOfIndex(idx, levels)
		indices[l] = append(indices[l], flat)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
	return indices
}

// levelOffsets expands level l's node offsets, in stream order, from the
// plan's run schedule: stream entry r.First+j is node r.Off+j·r.Stride.
func levelOffsets(p *Plan, l int) []int {
	out := make([]int, p.LevelSizes()[l])
	for _, r := range p.Runs() {
		if r.Level != l {
			continue
		}
		for j := 0; j < r.Count; j++ {
			out[r.First+j] = r.Off + j*r.Stride
		}
	}
	return out
}

// checkAgainstDefinition requires every level's offsets — the run schedule
// expanded per level — to equal the definition's list, entry for entry,
// and the schedule itself to be well formed (see checkRuns).
func checkAgainstDefinition(t *testing.T, p *Plan, dims []int, levels int) {
	t.Helper()
	checkRuns(t, p, dims, levels)
	for l, want := range referenceIndices(dims, levels) {
		got := levelOffsets(p, l)
		if len(got) != len(want) {
			t.Fatalf("dims %v levels %d level %d: len %d, want %d", dims, levels, l, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v levels %d level %d: entry %d = %d, want %d", dims, levels, l, i, got[i], want[i])
			}
		}
	}
}

// checkRuns requires the run schedule to partition the grid — every node in
// exactly one run — with rows in row-major order, each run inside one
// last-axis row, at most one run per level in a row, a power-of-two stride,
// and each level's runs numbering its stream entries consecutively in
// schedule order.
func checkRuns(t *testing.T, p *Plan, dims []int, levels int) {
	t.Helper()
	n, last := 1, dims[len(dims)-1]
	for _, d := range dims {
		n *= d
	}
	seen := make([]uint8, n)
	next := make([]int, levels)
	row, levelsInRow := -1, uint64(0)
	for i, r := range p.Runs() {
		label := fmt.Sprintf("dims %v levels %d run %d %+v", dims, levels, i, r)
		if r.Level < 0 || r.Level >= levels || r.Count < 1 || r.Stride < 1 || r.Stride&(r.Stride-1) != 0 {
			t.Fatalf("%s: malformed", label)
		}
		end := r.Off + (r.Count-1)*r.Stride
		if r.Off < 0 || end >= n || r.Off/last != end/last {
			t.Fatalf("%s: leaves its row", label)
		}
		switch {
		case r.Off/last > row:
			row, levelsInRow = r.Off/last, 0
		case r.Off/last < row:
			t.Fatalf("%s: row %d after row %d", label, r.Off/last, row)
		}
		if levelsInRow&(1<<r.Level) != 0 {
			t.Fatalf("%s: second run of its level in row %d", label, row)
		}
		levelsInRow |= 1 << r.Level
		if r.First != next[r.Level] {
			t.Fatalf("%s: first stream entry %d, want %d", label, r.First, next[r.Level])
		}
		next[r.Level] += r.Count
		for j := 0; j < r.Count; j++ {
			seen[r.Off+j*r.Stride]++
		}
	}
	for off, c := range seen {
		if c != 1 {
			t.Fatalf("dims %v levels %d: node %d in %d runs, want exactly 1", dims, levels, off, c)
		}
	}
	for l, size := range p.LevelSizes() {
		if next[l] != size {
			t.Fatalf("dims %v levels %d: level %d runs hold %d nodes, want %d", dims, levels, l, next[l], size)
		}
	}
}

// TestRunScheduleEqualsDefinition sweeps ranks 1–4 over the extents 1, 2,
// 3, 4, 5, 9, 17, 33 (rank 4 up to 9) and mixed shapes, at every level
// count from 1 to two beyond the grid's resolution: the schedule expanded
// per level is the definition's index lists, and its runs partition the
// grid.
func TestRunScheduleEqualsDefinition(t *testing.T) {
	extents := []int{1, 2, 3, 4, 5, 9, 17, 33}
	shapes := [][]int{{17, 9, 33}, {33, 5, 17}, {9, 33, 2}, {3, 17, 9, 5}}
	for _, a := range extents {
		shapes = append(shapes, []int{a})
		for _, b := range extents {
			shapes = append(shapes, []int{a, b})
			for _, c := range extents[:6] {
				shapes = append(shapes, []int{a, b, c})
			}
		}
	}
	for _, a := range extents[:6] {
		for _, b := range extents[:6] {
			for _, c := range extents[:6] {
				shapes = append(shapes, []int{a, 9, b, c})
			}
		}
	}
	for _, dims := range shapes {
		resolution := 0
		for _, d := range dims {
			resolution = max(resolution, bits.Len(uint(d-1)))
		}
		for levels := 1; levels <= resolution+2; levels++ {
			checkAgainstDefinition(t, buildPlan(dims, levels), dims, levels)
		}
	}
}

// TestPlanEqualsDefinition sweeps ranks 1–4 over extents 1, 2, 2^k, 2^k+1
// and primes, at levels 1–6 and one hierarchy far deeper than any grid here.
func TestPlanEqualsDefinition(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {7}, {16}, {17}, {33}, {64},
		{1, 1}, {1, 9}, {9, 1}, {2, 2}, {8, 9}, {13, 16}, {17, 17}, {5, 32},
		{1, 1, 1}, {2, 3, 5}, {9, 9, 9}, {8, 7, 17}, {5, 1, 6}, {16, 2, 11},
		{2, 3, 4, 5}, {5, 5, 5, 5}, {3, 1, 8, 9},
	}
	for _, dims := range shapes {
		for _, levels := range []int{1, 2, 3, 4, 5, 6, 12} {
			checkAgainstDefinition(t, buildPlan(dims, levels), dims, levels)
		}
	}
}

func TestNewPlanSharesOnePlanPerShape(t *testing.T) {
	a, err := NewPlan([]int{9, 10, 11}, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan([]int{9, 10, 11}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second NewPlan for one shape built a second plan")
	}
	for _, other := range []struct {
		dims   []int
		levels int
	}{{[]int{9, 10, 11}, 2}, {[]int{9, 10}, 3}, {[]int{9, 11, 10}, 3}} {
		c, err := NewPlan(other.dims, other.levels)
		if err != nil {
			t.Fatal(err)
		}
		if c == a {
			t.Fatalf("shape %v/%d shares the plan of [9 10 11]/3", other.dims, other.levels)
		}
	}
}

// TestNewPlanConcurrentFirstCallersShareOnePlan is meaningful under -race:
// eight goroutines ask for a shape nobody has built and must all end up
// with one plan, read concurrently.
func TestNewPlanConcurrentFirstCallersShareOnePlan(t *testing.T) {
	dims, levels := []int{21, 22, 23}, 4
	plans := make([]*Plan, 8)
	var wg sync.WaitGroup
	for g := range plans {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p, err := NewPlan(dims, levels)
			if err != nil {
				t.Error(err)
				return
			}
			_ = p.LevelSizes()
			plans[g] = p
		}(g)
	}
	wg.Wait()
	for g, p := range plans {
		if p != plans[0] {
			t.Fatalf("goroutine %d got its own plan", g)
		}
	}
	checkAgainstDefinition(t, plans[0], dims, levels)
}

func TestPlanMemoIsBounded(t *testing.T) {
	first, err := NewPlan([]int{30, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*planMemoSize; i++ {
		dims := []int{31 + i, 3}
		p, err := NewPlan(dims, 3)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstDefinition(t, p, dims, 3)
		planMemo.Lock()
		held := len(planMemo.entries)
		planMemo.Unlock()
		if held > planMemoSize {
			t.Fatalf("memo holds %d shapes, bound %d", held, planMemoSize)
		}
	}
	// The first shape was evicted long ago: it rebuilds, correctly, and the
	// plan handed out before eviction is untouched.
	again, err := NewPlan([]int{30, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Fatal("evicted shape still served from the memo")
	}
	checkAgainstDefinition(t, again, []int{30, 3}, 3)
	checkAgainstDefinition(t, first, []int{30, 3}, 3)
}

var sinkPlan *Plan

// BenchmarkNewPlan prices a 129³ plan: cold is the builder alone, shared
// what every caller after the first pays.
func BenchmarkNewPlan(b *testing.B) {
	dims, levels := []int{129, 129, 129}, 5
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(9 * 129 * 129 * 129)
		for i := 0; i < b.N; i++ {
			sinkPlan = buildPlan(dims, levels)
		}
	})
	b.Run("shared", func(b *testing.B) {
		if _, err := NewPlan(dims, levels); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := NewPlan(dims, levels)
			if err != nil {
				b.Fatal(err)
			}
			sinkPlan = p
		}
	})
}

// TestInjectCoversEveryNode pins the partition a reused reconstruction
// workspace relies on: the levels' index lists name every flat offset of
// the grid exactly once, so injecting every level overwrites every node and
// a dirty grid needs no clearing. Checked through Inject itself: each level
// writes its own tag into a grid pre-filled with a sentinel.
func TestInjectCoversEveryNode(t *testing.T) {
	cases := []struct {
		dims   []int
		levels int
	}{
		{[]int{1}, 1},
		{[]int{33}, 4},
		{[]int{64}, 5},
		{[]int{17, 9}, 3},
		{[]int{16, 33}, 5},
		{[]int{17, 9, 5}, 3},
		{[]int{17, 9, 5}, 5},
		{[]int{129, 129, 129}, 5},
	}
	for _, tc := range cases {
		p, err := NewPlan(tc.dims, tc.levels)
		if err != nil {
			t.Fatal(err)
		}
		n := 1
		for _, d := range tc.dims {
			n *= d
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = -1
		}
		seen := make([]uint8, n)
		for l := 0; l < tc.levels; l++ {
			ix := levelOffsets(p, l)
			for _, off := range ix {
				seen[off]++
			}
			tags := make([]float64, len(ix))
			for i := range tags {
				tags[i] = float64(l)
			}
			p.Inject(data, l, tags)
		}
		level := levelsOf(p)
		for off := range data {
			if seen[off] != 1 {
				t.Fatalf("dims %v L=%d: offset %d named by %d levels, want exactly 1", tc.dims, tc.levels, off, seen[off])
			}
			if data[off] != float64(level[off]) {
				t.Fatalf("dims %v L=%d: offset %d holds %v after injecting every level, want its level %d", tc.dims, tc.levels, off, data[off], level[off])
			}
		}
	}
}
