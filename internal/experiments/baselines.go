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

// BaselineRow is one bound of the one-shot-versus-progressive comparison:
// what an SZ-style and a ZFP-style archive built for the bound weigh, what
// the progressive store retrieves for it under theory control, and the L∞
// error each reconstruction really has.
type BaselineRow struct {
	RelBound               float64
	SZBytes, ZFPBytes      int
	ProgBytes              int64
	SZErr, ZFPErr, ProgErr float64
}

// CompareBaselines runs the comparison cmd/compare and exp-baselines both
// print: one SZ and one ZFP archive per bound against one measured sweep of
// the progressive store. A constant field yields no rows.
func CompareBaselines(field *grid.Tensor, c *core.Compressed, bounds []float64) ([]BaselineRow, error) {
	h := &c.Header
	sweep, err := core.SweepBounds(context.Background(), h, c, field, h.TheoryBound(), bounds)
	if err != nil {
		return nil, err
	}
	rows := make([]BaselineRow, len(sweep))
	for i, p := range sweep {
		szBlob, err := sz.Compress(field, p.Tolerance)
		if err != nil {
			return nil, err
		}
		szRec, _, err := sz.Decompress(szBlob)
		if err != nil {
			return nil, err
		}
		zfpBlob, err := zfp.Compress(field, p.Tolerance)
		if err != nil {
			return nil, err
		}
		zfpRec, _, err := zfp.Decompress(zfpBlob)
		if err != nil {
			return nil, err
		}
		rows[i] = BaselineRow{
			RelBound: p.RelBound,
			SZBytes:  len(szBlob), ZFPBytes: len(zfpBlob), ProgBytes: p.Plan.Bytes,
			SZErr: grid.MaxAbsDiff(field, szRec), ZFPErr: grid.MaxAbsDiff(field, zfpRec), ProgErr: p.AchievedErr,
		}
	}
	return rows, nil
}

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
	rows, err := CompareBaselines(field, c, thinBounds(p.Bounds, 7))
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:    "exp-baselines",
		Title: fmt.Sprintf("One-shot SZ/ZFP archives vs progressive retrieval (WarpX Jx, t=%d)", t),
		Note: fmt.Sprintf("progressive stores %d bytes once; SZ/ZFP need one archive per bound. All schemes verified to satisfy each bound.",
			c.Header.TotalBytes()),
		Columns: []string{
			"rel_bound", "sz_bytes", "zfp_bytes", "prog_retrieved_bytes",
			"sz_err", "zfp_err", "prog_err",
		},
	}
	var szTotal, zfpTotal int64
	for _, r := range rows {
		szTotal += int64(r.SZBytes)
		zfpTotal += int64(r.ZFPBytes)
		table.AddRow(r.RelBound, r.SZBytes, r.ZFPBytes, r.ProgBytes, r.SZErr, r.ZFPErr, r.ProgErr)
	}
	table.AddRow("TOTAL-to-serve-all", szTotal, zfpTotal, c.Header.TotalBytes(), "", "", "")
	return []*Table{table}, nil
}
