package experiments

import (
	"fmt"

	"pmgard/internal/core"
	"pmgard/internal/sim/warpx"
)

// midTimestep picks the representative timestep used by the paper's
// single-snapshot figures (t=32, clamped to the configured run length).
func midTimestep(p Params) int {
	t := 32
	if t >= p.Steps {
		t = p.Steps - 1
	}
	return t
}

// compressWarpX generates and compresses one synthetic WarpX field.
func compressWarpX(p Params, name string, t int) (*core.Compressed, error) {
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	field, err := warpxField(cfg, name, t)
	if err != nil {
		return nil, err
	}
	return core.Compress(field, p.Compress, name, t)
}

// Fig1 reproduces Fig. 1: the I/O cost (bytes) a tolerance *should* incur
// (oracle: stop as soon as the measured error clears the tolerance) versus
// the cost the theory-based error control actually incurs, for the B_x and
// E_x WarpX fields.
func Fig1(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	table := &Table{
		ID:    "fig1",
		Title: "I/O cost of requested tolerance vs theory-based error control (WarpX Bx, Ex)",
		Note:  fmt.Sprintf("dims=%v t=%d; oracle = greedy path stopped on measured error", p.WarpXDims, t),
		Columns: []string{
			"field", "rel_bound", "oracle_bytes", "theory_bytes", "extra_io_pct",
		},
	}
	for _, name := range []string{"Bx", "Ex"} {
		field, err := warpxField(cfg, name, t)
		if err != nil {
			return nil, err
		}
		c, err := core.Compress(field, p.Compress, name, t)
		if err != nil {
			return nil, err
		}
		points, err := pathProfile(field, c)
		if err != nil {
			return nil, err
		}
		for _, rel := range thinBounds(p.Bounds, 9) {
			tol := c.Header.AbsTolerance(rel)
			if tol <= 0 {
				continue
			}
			oracle := stopAtOracle(points, tol)
			theory := stopAtTheory(points, tol)
			extra := 0.0
			if oracle.Bytes > 0 {
				extra = 100 * float64(theory.Bytes-oracle.Bytes) / float64(oracle.Bytes)
			} else if theory.Bytes > 0 {
				extra = 100
			}
			table.AddRow(name, rel, oracle.Bytes, theory.Bytes, extra)
		}
	}
	return []*Table{table}, nil
}

// Fig2 reproduces Fig. 2: the requested error tolerance versus the error
// the theory-controlled retrieval actually achieves, for WarpX J_x and
// Gray-Scott D_u. The achieved error sitting orders of magnitude below the
// requested bound is the paper's Motivation 1.
func Fig2(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	table := &Table{
		ID:    "fig2",
		Title: "Requested tolerance vs achieved max error under theory control (WarpX Jx, Gray-Scott Du)",
		Note:  fmt.Sprintf("dims=%v gs=%d³ t=%d", p.WarpXDims, p.GrayScottN, t),
		Columns: []string{
			"field", "rel_bound", "requested_abs", "achieved_abs", "requested/achieved",
		},
	}
	for _, j := range []struct {
		name string
		prov fieldProvider
	}{{"Jx", warpxProvider(p, "Jx")}, {"Du", grayScottProvider(p, "Du")}} {
		field, err := j.prov(t)
		if err != nil {
			return nil, err
		}
		c, err := core.Compress(field, p.Compress, j.name, t)
		if err != nil {
			return nil, err
		}
		h := &c.Header
		points, err := pathProfile(field, c)
		if err != nil {
			return nil, err
		}
		for _, rel := range thinBounds(p.Bounds, 9) {
			tol := h.AbsTolerance(rel)
			if tol <= 0 {
				continue
			}
			stop := stopAtTheory(points, tol)
			ratio := 0.0
			if stop.ActualErr > 0 {
				ratio = tol / stop.ActualErr
			}
			table.AddRow(j.name, rel, tol, stop.ActualErr, ratio)
		}
	}
	return []*Table{table}, nil
}

// thinBounds subsamples a bound sweep down to at most n entries, keeping
// the endpoints, so tables stay readable while spanning the full range.
func thinBounds(bounds []float64, n int) []float64 {
	if len(bounds) <= n {
		return bounds
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, bounds[i*(len(bounds)-1)/(n-1)])
	}
	return out
}
