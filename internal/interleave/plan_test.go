package interleave

import (
	"sync"
	"testing"
)

// levelOfIndex is the definition buildPlan's tables implement, kept here as
// the per-node reference: a node is active at refinement step s iff every
// axis index is a multiple of 2^s; its introduction step is the largest such
// s (capped at levels-1) and its level is levels-1-s, so that level 0 is the
// coarsest grid.
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

// referencePlan builds the maps straight from the definition: levelOfIndex
// per node, row-major order within a level.
func referencePlan(dims []int, levels int) (levelOf []uint8, indices [][]int) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	levelOf = make([]uint8, n)
	indices = make([][]int, levels)
	idx := make([]int, len(dims))
	for flat := 0; flat < n; flat++ {
		l := levelOfIndex(idx, levels)
		levelOf[flat] = uint8(l)
		indices[l] = append(indices[l], flat)
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
	return levelOf, indices
}

func checkAgainstDefinition(t *testing.T, p *Plan, dims []int, levels int) {
	t.Helper()
	levelOf, indices := referencePlan(dims, levels)
	if len(p.levelOf) != len(levelOf) {
		t.Fatalf("dims %v levels %d: %d nodes, want %d", dims, levels, len(p.levelOf), len(levelOf))
	}
	for flat, l := range levelOf {
		if p.LevelOf(flat) != int(l) {
			t.Fatalf("dims %v levels %d: node %d on level %d, want %d", dims, levels, flat, p.LevelOf(flat), l)
		}
	}
	for l, want := range indices {
		got := p.Indices(l)
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("dims %v levels %d level %d: len %d cap %d, want %d", dims, levels, l, len(got), cap(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dims %v levels %d level %d: entry %d = %d, want %d", dims, levels, l, i, got[i], want[i])
			}
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
