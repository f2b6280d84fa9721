package experiments

import (
	"fmt"
	"math"

	"pmgard/internal/core"
	"pmgard/internal/sim/warpx"
)

// Fig5 reproduces Fig. 5: (a) the correlation matrix of per-level plane
// counts, (b) the number of planes retrieved from each level across error
// bounds, and (c) the per-level breakdown of retrieval size — the evidence
// behind D-MGARD's chained design and weighted level importance.
func Fig5(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	levels := p.Compress.Decompose.Levels
	if levels == 0 {
		levels = 5
	}

	// Gather plane-count records over timesteps × bounds for (a), and the
	// per-bound detail at the mid timestep for (b)/(c).
	var records [][]int
	stride := p.Steps / 8
	if stride == 0 {
		stride = 1
	}
	for t := 0; t < p.Steps; t += stride {
		field, err := warpxField(cfg, "Jx", t)
		if err != nil {
			return nil, err
		}
		c, err := core.Compress(field, p.Compress, "Jx", t)
		if err != nil {
			return nil, err
		}
		h := &c.Header
		est := h.TheoryBound()
		for _, rel := range p.Bounds {
			tol := h.AbsTolerance(rel)
			if tol <= 0 {
				continue
			}
			_, plan, err := greedyRetrieve(h, c, est, tol)
			if err != nil {
				return nil, err
			}
			records = append(records, plan.Planes)
		}
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("experiments: fig5 gathered no records")
	}

	// (a) Pearson correlation matrix of b_l across records.
	ta := &Table{
		ID:    "fig5a",
		Title: "Correlation matrix of the numbers of bit-planes across levels (WarpX Jx)",
		Note:  fmt.Sprintf("%d records (timesteps × bounds)", len(records)),
	}
	ta.Columns = append(ta.Columns, "level")
	for l := 0; l < levels; l++ {
		ta.Columns = append(ta.Columns, fmt.Sprintf("level_%d", l))
	}
	for i := 0; i < levels; i++ {
		row := []any{fmt.Sprintf("level_%d", i)}
		for j := 0; j < levels; j++ {
			row = append(row, pearson(records, i, j))
		}
		ta.AddRow(row...)
	}

	// (b)/(c): per-bound per-level plane counts and size shares at the mid
	// timestep.
	t := midTimestep(p)
	field, err := warpxField(cfg, "Jx", t)
	if err != nil {
		return nil, err
	}
	c, err := core.Compress(field, p.Compress, "Jx", t)
	if err != nil {
		return nil, err
	}
	h := &c.Header
	est := h.TheoryBound()

	tb := &Table{
		ID:    "fig5b",
		Title: fmt.Sprintf("Bit-planes retrieved per level across error bounds (WarpX Jx, t=%d)", t),
	}
	tcT := &Table{
		ID:    "fig5c",
		Title: fmt.Sprintf("Retrieval size share (%%) per level across error bounds (WarpX Jx, t=%d)", t),
	}
	tb.Columns = append(tb.Columns, "rel_bound")
	tcT.Columns = append(tcT.Columns, "rel_bound")
	for l := 0; l < levels; l++ {
		tb.Columns = append(tb.Columns, fmt.Sprintf("level_%d", l))
		tcT.Columns = append(tcT.Columns, fmt.Sprintf("level_%d_pct", l))
	}
	for _, rel := range thinBounds(p.Bounds, 9) {
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			continue
		}
		_, plan, err := greedyRetrieve(h, c, est, tol)
		if err != nil {
			return nil, err
		}
		rowB := []any{rel}
		rowC := []any{rel}
		for l := 0; l < levels; l++ {
			rowB = append(rowB, plan.Planes[l])
			pct := 0.0
			if plan.Bytes > 0 {
				pct = 100 * float64(plan.BytesPerLevel[l]) / float64(plan.Bytes)
			}
			rowC = append(rowC, pct)
		}
		tb.AddRow(rowB...)
		tcT.AddRow(rowC...)
	}
	return []*Table{ta, tb, tcT}, nil
}

// pearson computes the Pearson correlation between plane counts of levels
// i and j across the records. Constant series correlate as 1 with
// themselves and 0 with anything else.
func pearson(records [][]int, i, j int) float64 {
	n := float64(len(records))
	var mi, mj float64
	for _, r := range records {
		mi += float64(r[i])
		mj += float64(r[j])
	}
	mi /= n
	mj /= n
	var cov, vi, vj float64
	for _, r := range records {
		di, dj := float64(r[i])-mi, float64(r[j])-mj
		cov += di * dj
		vi += di * di
		vj += dj * dj
	}
	if vi == 0 && vj == 0 && i == j {
		return 1
	}
	if vi == 0 || vj == 0 {
		return 0
	}
	return cov / math.Sqrt(vi*vj)
}
