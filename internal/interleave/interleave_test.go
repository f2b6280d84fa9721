package interleave

import (
	"math/rand"
	"testing"
)

func TestNewPlanValidation(t *testing.T) {
	cases := []struct {
		dims   []int
		levels int
	}{
		{nil, 3},
		{[]int{4, 0}, 3},
		{[]int{4}, 0},
		{[]int{4}, 31},
		{[]int{-2}, 2},
	}
	for _, c := range cases {
		if _, err := NewPlan(c.dims, c.levels); err == nil {
			t.Errorf("NewPlan(%v, %d) succeeded, want error", c.dims, c.levels)
		}
	}
}

func TestLevelSizesSumToTotal(t *testing.T) {
	for _, dims := range [][]int{{17}, {9, 9}, {5, 9, 17}, {8, 8}, {33, 7}} {
		p, err := NewPlan(dims, 4)
		if err != nil {
			t.Fatal(err)
		}
		total := 1
		for _, d := range dims {
			total *= d
		}
		sum := 0
		for _, s := range p.LevelSizes() {
			sum += s
		}
		if sum != total {
			t.Errorf("dims %v: level sizes sum %d, want %d", dims, sum, total)
		}
	}
}

func TestSingleLevelIsEverything(t *testing.T) {
	p, err := NewPlan([]int{4, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.LevelSizes()[0]; got != 16 {
		t.Fatalf("single-level size = %d, want 16", got)
	}
}

// levelsOf tabulates each grid node's level from the plan's run schedule.
func levelsOf(p *Plan) []int {
	n := 0
	for _, size := range p.LevelSizes() {
		n += size
	}
	level := make([]int, n)
	for l := 0; l < p.Levels(); l++ {
		for _, flat := range levelOffsets(p, l) {
			level[flat] = l
		}
	}
	return level
}

func TestLevelOfIndex1D(t *testing.T) {
	// 1D grid of 9 nodes, 3 levels: coarsest grid step 4.
	// Nodes 0,4,8 → level 0; nodes 2,6 → level 1; odd nodes → level 2.
	p, err := NewPlan([]int{9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 1, 2, 0, 2, 1, 2, 0}
	level := levelsOf(p)
	for i, w := range want {
		if got := level[i]; got != w {
			t.Errorf("level of node %d = %d, want %d", i, got, w)
		}
	}
}

func TestLevelOfIndex2D(t *testing.T) {
	// 2D: level is determined by the *least* divisible axis.
	p, err := NewPlan([]int{5, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	level := levelsOf(p)
	// Node (4,2): min(v2)=1 → level 3-1-1 = 1.
	if got := level[4*5+2]; got != 1 {
		t.Errorf("level of (4,2) = %d, want 1", got)
	}
	// Node (4,4): both multiples of 4 → level 0.
	if got := level[4*5+4]; got != 0 {
		t.Errorf("level of (4,4) = %d, want 0", got)
	}
	// Node (3,4): v2(3)=0 → level 2.
	if got := level[3*5+4]; got != 2 {
		t.Errorf("level of (3,4) = %d, want 2", got)
	}
}

func TestCoarseLevelSize3D(t *testing.T) {
	// 9³ grid, 4 levels: coarsest step 8 → coarse grid is 2³ = 8 nodes.
	p, err := NewPlan([]int{9, 9, 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.LevelSizes()[0]; got != 8 {
		t.Fatalf("coarse level size = %d, want 8", got)
	}
}

func TestIndicesDisjointAndOrdered(t *testing.T) {
	p, err := NewPlan([]int{9, 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for l := 0; l < p.Levels(); l++ {
		prev := -1
		for _, off := range levelOffsets(p, l) {
			if seen[off] {
				t.Fatalf("offset %d appears in multiple levels", off)
			}
			seen[off] = true
			if off <= prev {
				t.Fatalf("level %d indices not strictly increasing", l)
			}
			prev = off
		}
	}
	if len(seen) != 81 {
		t.Fatalf("covered %d offsets, want 81", len(seen))
	}
}

func TestExtractInjectRoundTrip(t *testing.T) {
	p, err := NewPlan([]int{9, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 45)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	orig := append([]float64(nil), data...)

	streams := make([][]float64, p.Levels())
	for l := range streams {
		streams[l] = p.Extract(data, l, nil)
	}
	// Zero everything, then inject back.
	for i := range data {
		data[i] = 0
	}
	for l, s := range streams {
		p.Inject(data, l, s)
	}
	for i := range data {
		if data[i] != orig[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, data[i], orig[i])
		}
	}
}

func TestExtractIntoProvidedBuffer(t *testing.T) {
	p, err := NewPlan([]int{5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := []float64{10, 11, 12, 13, 14}
	buf := make([]float64, p.LevelSizes()[0])
	got := p.Extract(data, 0, buf)
	if &got[0] != &buf[0] {
		t.Fatal("Extract did not use provided buffer")
	}
	// Level 0 of 5 nodes, 2 levels: step 2 → nodes 0,2,4.
	want := []float64{10, 12, 14}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Extract[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestExtractInjectLengthPanics(t *testing.T) {
	p, _ := NewPlan([]int{5}, 2)
	data := make([]float64, 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Extract with wrong dst length did not panic")
			}
		}()
		p.Extract(data, 0, make([]float64, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Inject with wrong src length did not panic")
			}
		}()
		p.Inject(data, 0, make([]float64, 1))
	}()
}

func TestLevelSizesDecreaseTowardCoarse(t *testing.T) {
	// On a large grid, finer levels hold more nodes.
	p, err := NewPlan([]int{33, 33}, 5)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.LevelSizes()
	for l := 1; l < len(sizes); l++ {
		if sizes[l] <= sizes[l-1] {
			t.Fatalf("level %d size %d not greater than level %d size %d",
				l, sizes[l], l-1, sizes[l-1])
		}
	}
}
