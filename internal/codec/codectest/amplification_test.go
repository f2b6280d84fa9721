package codectest

import (
	"fmt"
	"math"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/codec/mgard"
	"pmgard/internal/grid"
	"pmgard/internal/interleave"
)

// levelNodes returns the grid offsets of level l's coefficients, in stream
// order.
func levelNodes(p *interleave.Plan, l int) []int {
	n := 1
	for _, d := range p.Dims() {
		n *= d
	}
	data := make([]float64, n)
	stream := make([]float64, p.LevelSizes()[l])
	for i := range stream {
		stream[i] = float64(i + 1)
	}
	p.Inject(data, l, stream)
	nodes := make([]int, len(stream))
	for j, v := range data {
		if v > 0 {
			nodes[int(v)-1] = j
		}
	}
	return nodes
}

// spacing returns the node spacing g of level l's step: level l ≥ 1 fills
// the odd nodes of the step-g grid, g = 2^(levels−1−l), and level 0 is the
// even nodes of level 1's.
func spacing(levels, l int) int { return 1 << (levels - 1 - max(l, 1)) }

// coords returns the per-axis coordinates of a flat grid offset.
func coords(dims []int, node int) []int {
	x := make([]int, len(dims))
	for a := len(dims) - 1; a >= 0; a-- {
		x[a], node = node%dims[a], node/dims[a]
	}
	return x
}

// reaches reports whether a level coefficient of spacing g at node can
// move the value at peak: its response spreads less than 3g along each
// axis — its own inverse step moves it ±2g, the finer steps' interpolation
// less than g more.
func reaches(dims []int, g, node, peak int) bool {
	x, p := coords(dims, node), coords(dims, peak)
	for a := range x {
		if x[a]-p[a] >= 3*g || p[a]-x[a] >= 3*g {
			return false
		}
	}
	return true
}

// packs groups level l's nodes into sets recomposed together: with packed,
// nodes whose coordinates agree modulo 8g on every axis, so the responses
// of one set — each within 3g of its node — never overlap and one
// recompose yields their Σ|R(e_i)[j]| at every node j; without, one node
// per set.
func packs(p *interleave.Plan, l int, packed bool) [][]int {
	nodes := levelNodes(p, l)
	if !packed {
		sets := make([][]int, len(nodes))
		for i, node := range nodes {
			sets[i] = []int{node}
		}
		return sets
	}
	g := spacing(p.Levels(), l)
	var sets [][]int
	index := map[int]int{}
	for _, node := range nodes {
		class := 0
		for _, x := range coords(p.Dims(), node) {
			class = class*8 + x/g%8
		}
		i, ok := index[class]
		if !ok {
			i, index[class] = len(sets), len(sets)
			sets = append(sets, nil)
		}
		sets[i] = append(sets[i], node)
	}
	return sets
}

// bruteForce returns level l's abs row sums of c's recomposition on a grid
// of shape dims, sums[j] = Σ_i |R(e_i)[j]| over level l's unit
// coefficients e_i, recomposed one at a time or, with packed, a set of
// non-overlapping ones at a time, and the node j* where they peak.
func bruteForce(t *testing.T, c codec.ProgressiveCodec, dims []int, opts codec.Options, l int, packed bool) (sums []float64, peak int) {
	t.Helper()
	d, err := c.NewZero(dims, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	work := grid.New(dims...)
	sums = make([]float64, len(work.Data()))
	for _, set := range packs(d.Plan(), l, packed) {
		clear(work.Data())
		for _, node := range set {
			work.Data()[node] = 1
		}
		if _, err := d.RecomposeInto(d.Levels()-1, work); err != nil {
			t.Fatal(err)
		}
		for j, v := range work.Data() {
			sums[j] += math.Abs(v)
		}
	}
	for j, s := range sums {
		if s > sums[peak] {
			peak = j
		}
	}
	return sums, peak
}

// amplificationCase is one shape and option set the closed form is
// checked on.
type amplificationCase struct {
	dims []int
	opts codec.Options
}

func (a amplificationCase) String() string {
	if !a.opts.Update {
		return fmt.Sprintf("%v/L%d/no-update", a.dims, a.opts.Levels)
	}
	return fmt.Sprintf("%v/L%d/w%g", a.dims, a.opts.Levels, a.opts.UpdateWeight)
}

// liftingCases are the lifting transform's checked shapes: cubes with
// interior levels and levels a few nodes wide, mixed shapes with even
// extents (an odd node at a line's end, predicted from the left alone, and
// axes a level's step leaves one node wide), and 1-D and 2-D grids, each
// at three update weights and without the update.
func liftingCases(shapes [][]int) []amplificationCase {
	var cases []amplificationCase
	for _, dims := range shapes {
		for _, w := range []float64{0.1, 0.25, 0.5, -1} {
			opts := codec.Options{Levels: 5, Update: w >= 0, UpdateWeight: max(w, 0)}
			cases = append(cases, amplificationCase{dims, opts})
		}
	}
	return cases
}

// casesFor returns the cases backend c is checked on: the lifting cases
// for mgard; for a backend with no update step to vary, the suite's
// options on each shape of at most 2,000 nodes, since its constants
// follow from convexity alone and brute force costs a recompose per node.
func casesFor(c codec.ProgressiveCodec, shapes [][]int) []amplificationCase {
	if c.ID() == mgard.ID {
		return liftingCases(shapes)
	}
	var cases []amplificationCase
	for _, dims := range shapes {
		n := 1
		for _, d := range dims {
			n *= d
		}
		if n <= 2000 {
			cases = append(cases, amplificationCase{dims, options()})
		}
	}
	return cases
}

// backends returns every registered backend.
func backends(t *testing.T) []codec.ProgressiveCodec {
	var cs []codec.ProgressiveCodec
	for _, id := range codec.IDs() {
		c, err := codec.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestPackedBruteForceIsExact holds the packed brute force to the one that
// recomposes each unit coefficient alone, node by node, for every backend
// on shapes up to 17³: no two responses of a set overlap.
func TestPackedBruteForceIsExact(t *testing.T) {
	for _, c := range backends(t) {
		for _, tc := range casesFor(c, [][]int{{17, 17, 17}, {10, 17, 6}, {12, 21}, {40}}) {
			for l := 0; l < tc.opts.Levels; l++ {
				one, _ := bruteForce(t, c, tc.dims, tc.opts, l, false)
				packed, _ := bruteForce(t, c, tc.dims, tc.opts, l, true)
				for j := range one {
					if math.Abs(one[j]-packed[j]) > 1e-12 {
						t.Fatalf("%s %v level %d node %d: packed row sum %.15g, one at a time %.15g", c.ID(), tc, l, j, packed[j], one[j])
					}
				}
			}
		}
	}
}

// TestLevelAmplificationMatchesBruteForce holds every backend's per-level
// constants to the abs row sums of its whole recomposition within 1e-12,
// the lifting backend's closed form on cubes, mixed shapes with even
// extents and 1-D and 2-D grids, at three update weights and without the
// update.
func TestLevelAmplificationMatchesBruteForce(t *testing.T) {
	shapes := [][]int{{9, 9, 9}, {17, 17, 17}, {33, 33, 33}, {10, 17, 6}, {16, 9, 12}, {40}, {12, 21}, {8, 33}}
	for _, c := range backends(t) {
		for _, tc := range casesFor(c, shapes) {
			got := c.LevelAmplification(tc.dims, tc.opts)
			if len(got) != tc.opts.Levels {
				t.Fatalf("%s %v: %d constants, want %d", c.ID(), tc, len(got), tc.opts.Levels)
			}
			for l := range got {
				sums, peak := bruteForce(t, c, tc.dims, tc.opts, l, true)
				if math.Abs(got[l]-sums[peak]) > 1e-12 {
					t.Errorf("%s %v level %d: constant %.15g, brute force %.15g", c.ID(), tc, l, got[l], sums[peak])
				}
			}
		}
	}
}

// TestAdversarialSignPatternsStayBounded recomposes, for each level, the
// sign pattern that peaks its worst row: level l's coefficients set to
// ±E_l with the signs of their responses at the node j* where the row sums
// peak (+E_l for those that cannot reach it). Alone, a level's pattern
// reaches C_l·E_l (the constant is attained, so no smaller one is a
// bound); all levels' patterns together stay within Σ_l C_l·E_l.
func TestAdversarialSignPatternsStayBounded(t *testing.T) {
	for _, c := range backends(t) {
		for _, tc := range casesFor(c, [][]int{{17, 17, 17}, {16, 9, 12}, {12, 21}}) {
			consts := c.LevelAmplification(tc.dims, tc.opts)
			all, err := c.NewZero(tc.dims, tc.opts, 1)
			if err != nil {
				t.Fatal(err)
			}
			work := grid.New(tc.dims...)
			bound := 0.0
			for l := range consts {
				e := math.Ldexp(1, -l) // E_l: each level its own magnitude
				bound += consts[l] * e
				alone, err := c.NewZero(tc.dims, tc.opts, 1)
				if err != nil {
					t.Fatal(err)
				}
				_, peak := bruteForce(t, c, tc.dims, tc.opts, l, true)
				g := spacing(tc.opts.Levels, l)
				for i, node := range levelNodes(alone.Plan(), l) {
					sign := 1.0
					if reaches(tc.dims, g, node, peak) {
						clear(work.Data())
						work.Data()[node] = 1
						if _, err := alone.RecomposeInto(tc.opts.Levels-1, work); err != nil {
							t.Fatal(err)
						}
						sign = work.Data()[peak]
					}
					alone.Coeffs(l)[i] = math.Copysign(e, sign)
				}
				copy(all.Coeffs(l), alone.Coeffs(l))
				if got, want := maxAbs(alone.Recompose()), consts[l]*e; got > want*(1+1e-12) || got < want*(1-1e-12) {
					t.Errorf("%s %v level %d: the worst pattern reaches %.15g, C_l·E_l = %.15g", c.ID(), tc, l, got, want)
				}
			}
			if got := maxAbs(all.Recompose()); got > bound*(1+1e-12) {
				t.Errorf("%s %v: every level's worst pattern reaches %.15g, Σ C_l·E_l = %.15g", c.ID(), tc, got, bound)
			}
		}
	}
}

func maxAbs(t *grid.Tensor) float64 {
	m := 0.0
	for _, v := range t.Data() {
		m = max(m, math.Abs(v))
	}
	return m
}
