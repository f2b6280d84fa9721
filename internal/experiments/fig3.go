package experiments

import (
	"fmt"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/sim/warpx"
)

// planesForBound compresses a field and returns the per-level plane counts
// the theory-controlled greedy retriever picks for one relative bound,
// along with the executed plan's byte cost.
func planesForBound(p Params, field *grid.Tensor, name string, t int, rel float64) ([]int, int64, error) {
	c, err := core.Compress(field, p.Compress, name, t)
	if err != nil {
		return nil, 0, err
	}
	h := &c.Header
	tol := h.AbsTolerance(rel)
	if tol <= 0 {
		return make([]int, len(h.Levels)), 0, nil
	}
	_, plan, err := greedyRetrieve(h, c, h.TheoryBound(), tol)
	if err != nil {
		return nil, 0, err
	}
	return plan.Planes, plan.Bytes, nil
}

func sumPlanes(planes []int) int {
	s := 0
	for _, b := range planes {
		s += b
	}
	return s
}

// Fig3 reproduces Fig. 3: the total number of bit-planes retrieved as a
// function of (a) simulation timestep, (b) relative error bound, (c) laser
// duration and (d) electron density — the non-linear, high-dimensional
// behaviour that motivates a DNN predictor (Motivation 2).
func Fig3(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	base := warpx.DefaultConfig(p.WarpXDims...)
	const refBound = 1e-5

	// (a) versus timestep at a fixed bound, for the three WarpX fields.
	ta := &Table{
		ID:      "fig3a",
		Title:   "Number of bit-planes vs timestep (WarpX, rel bound 1e-5)",
		Columns: []string{"timestep", "Bx_planes", "Ex_planes", "Jx_planes"},
	}
	stride := p.Steps / 8
	if stride == 0 {
		stride = 1
	}
	for t := 0; t < p.Steps; t += stride {
		row := []any{t}
		for _, name := range []string{"Bx", "Ex", "Jx"} {
			field, err := warpxField(base, name, t)
			if err != nil {
				return nil, err
			}
			planes, _, err := planesForBound(p, field, name, t, refBound)
			if err != nil {
				return nil, err
			}
			row = append(row, sumPlanes(planes))
		}
		ta.AddRow(row...)
	}

	// (b) versus relative error bound at a fixed timestep.
	t := midTimestep(p)
	tb := &Table{
		ID:      "fig3b",
		Title:   fmt.Sprintf("Number of bit-planes vs relative error bound (WarpX, t=%d)", t),
		Columns: []string{"rel_bound", "Bx_planes", "Ex_planes", "Jx_planes"},
	}
	for _, rel := range thinBounds(p.Bounds, 9) {
		row := []any{rel}
		for _, name := range []string{"Bx", "Ex", "Jx"} {
			field, err := warpxField(base, name, t)
			if err != nil {
				return nil, err
			}
			planes, _, err := planesForBound(p, field, name, t, rel)
			if err != nil {
				return nil, err
			}
			row = append(row, sumPlanes(planes))
		}
		tb.AddRow(row...)
	}

	// (c) versus laser duration (simulation input parameter).
	tc := &Table{
		ID:      "fig3c",
		Title:   fmt.Sprintf("Number of bit-planes vs laser duration (WarpX Ex, t=%d, rel bound 1e-5)", t),
		Columns: []string{"duration", "Ex_planes", "bytes"},
	}
	for _, dur := range []float64{0.03, 0.05, 0.08, 0.12, 0.18, 0.25} {
		cfg := base
		cfg.Duration = dur
		field, err := warpxField(cfg, "Ex", t)
		if err != nil {
			return nil, err
		}
		planes, bytes, err := planesForBound(p, field, "Ex", t, refBound)
		if err != nil {
			return nil, err
		}
		tc.AddRow(dur, sumPlanes(planes), bytes)
	}

	// (d) versus electron density (simulation input parameter).
	td := &Table{
		ID:      "fig3d",
		Title:   fmt.Sprintf("Number of bit-planes vs electron density (WarpX Jx, t=%d, rel bound 1e-5)", t),
		Columns: []string{"density", "Jx_planes", "bytes"},
	}
	for _, ne := range []float64{0.25, 0.5, 1, 2, 4} {
		cfg := base
		cfg.Density = ne
		field, err := warpxField(cfg, "Jx", t)
		if err != nil {
			return nil, err
		}
		planes, bytes, err := planesForBound(p, field, "Jx", t, refBound)
		if err != nil {
			return nil, err
		}
		td.AddRow(ne, sumPlanes(planes), bytes)
	}
	return []*Table{ta, tb, tc, td}, nil
}
