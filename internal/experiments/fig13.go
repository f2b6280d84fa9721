package experiments

import (
	"context"
	"fmt"
	"math"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/features"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/warpx"
)

// trainBothModels harvests the first half of J_x's timesteps and trains
// both prediction models on the same sweep, as the paper's evaluation does.
func trainBothModels(p Params) (*dmgard.Model, *emgard.Model, error) {
	drecs, esamps, err := harvestBoth(p.Compress, p.Bounds, "Jx", warpxProvider(p, "Jx"), 0, p.Steps/2)
	if err != nil {
		return nil, nil, err
	}
	dm, err := dmgard.Train(drecs, p.Compress.Planes, p.DTrain)
	if err != nil {
		return nil, nil, err
	}
	em, err := emgard.Train(esamps, p.ETrain)
	if err != nil {
		return nil, nil, err
	}
	return dm, em, nil
}

// Fig12 reproduces Fig. 12: the achieved maximum absolute error of E-MGARD
// versus the original MGARD and the requested bound, indexed by the PSNR
// of the original-MGARD reconstruction. E-MGARD's achieved error should
// hug the requested bound while theory control sits far below it.
func Fig12(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	_, em, err := trainBothModels(p)
	if err != nil {
		return nil, err
	}
	t := midTimestep(p)
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	field, err := warpxField(cfg, "Jx", t)
	if err != nil {
		return nil, err
	}
	c, err := core.Compress(field, p.Compress, "Jx", t)
	if err != nil {
		return nil, err
	}
	h := &c.Header
	theory := h.TheoryBound()
	cs, err := em.Constants(h.LevelPools)
	if err != nil {
		return nil, err
	}
	learned := retrieval.PerLevel(h.LevelInfos(), cs)
	table := &Table{
		ID:    "fig12",
		Title: fmt.Sprintf("E-MGARD achieved max error vs original MGARD and requested bound (WarpX Jx, t=%d)", t),
		Note:  "PSNR computed from the original-MGARD reconstruction, as in the paper",
		Columns: []string{
			"rel_bound", "psnr_db", "requested_abs", "mgard_achieved", "emgard_achieved",
		},
	}
	for _, rel := range thinBounds(p.Bounds, 9) {
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			continue
		}
		recT, _, err := greedyRetrieve(h, c, theory, tol)
		if err != nil {
			return nil, err
		}
		recE, _, err := greedyRetrieve(h, c, learned, tol)
		if err != nil {
			return nil, err
		}
		table.AddRow(rel,
			grid.PSNR(field, recT),
			tol,
			grid.MaxAbsDiff(field, recT),
			grid.MaxAbsDiff(field, recE))
	}
	return []*Table{table}, nil
}

// Fig13 reproduces Fig. 13: the total retrieval size of D-MGARD and
// E-MGARD versus the original MGARD, accumulated over all timesteps, plus
// the Sav percentages of Eq. 8. The headline claim: D-MGARD saves 5–40%,
// E-MGARD 20–80%, with E-MGARD strongest at low PSNR.
func Fig13(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	dm, em, err := trainBothModels(p)
	if err != nil {
		return nil, err
	}
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	table := &Table{
		ID:    "fig13",
		Title: "Total retrieval size across timesteps: original vs D-MGARD vs E-MGARD (WarpX Jx)",
		Note: fmt.Sprintf("accumulated over %d timesteps; Sav per Eq. 8; d_viol/e_viol count timesteps whose achieved error exceeded the requested one; "+
			"x_* is what every read path serves (core.RetrieveTolerance under h.Bound()): x_viol counts plans that claimed the tolerance and missed it, "+
			"x_unreach plans that fetched every plane and reported it unreachable; e_xplan_viol is x_viol for E-MGARD's learned bound under the same planner", p.Steps),
		Columns: []string{
			"rel_bound", "avg_psnr_db", "mgard_bytes", "dmgard_bytes", "emgard_bytes",
			"sav_d_pct", "sav_e_pct", "d_viol", "e_viol",
			"x_bytes", "sav_x_pct", "x_viol", "x_unreach", "e_xplan_viol",
		},
	}
	for _, rel := range thinBounds(p.Bounds, 9) {
		var mgardBytes, dBytes, eBytes, xBytes int64
		var psnrSum float64
		var psnrN int
		dViol, eViol, xViol, xUnreach, exViol := 0, 0, 0, 0, 0
		for t := 0; t < p.Steps; t++ {
			field, err := warpxField(cfg, "Jx", t)
			if err != nil {
				return nil, err
			}
			c, err := core.Compress(field, p.Compress, "Jx", t)
			if err != nil {
				return nil, err
			}
			h := &c.Header
			tol := h.AbsTolerance(rel)
			if tol <= 0 {
				continue
			}
			recT, planT, err := greedyRetrieve(h, c, h.TheoryBound(), tol)
			if err != nil {
				return nil, err
			}
			mgardBytes += planT.Bytes
			if ps := grid.PSNR(field, recT); !math.IsInf(ps, 0) {
				psnrSum += ps
				psnrN++
			}

			// D-MGARD: predict plane counts from features + the relative
			// target error.
			feat := dmgard.CombineFeatures(features.Extract(field, t), h)
			planes, err := dm.Predict(feat, rel)
			if err != nil {
				return nil, err
			}
			recD, planD, err := core.RetrievePlanes(context.Background(), h, c, planes, core.RetrieveOptions{})
			if err != nil {
				return nil, err
			}
			dBytes += planD.Bytes
			if grid.MaxAbsDiff(field, recD) > tol {
				dViol++
			}

			// E-MGARD: learned per-level constants in the greedy loop.
			cs, err := em.Constants(h.LevelPools)
			if err != nil {
				return nil, err
			}
			learned := retrieval.PerLevel(h.LevelInfos(), cs)
			recE, planE, err := greedyRetrieve(h, c, learned, tol)
			if err != nil {
				return nil, err
			}
			eBytes += planE.Bytes
			if grid.MaxAbsDiff(field, recE) > tol {
				eViol++
			}

			// The product's read: the fewest bytes the exact per-level
			// bound allows, and its promise — the tolerance is met, or
			// every plane is fetched and the plan says it is not. The same
			// planner under E-MGARD's learned bound exploits the
			// estimate's errors, which is why no read path offers it.
			recX, planX, err := core.RetrieveTolerance(context.Background(), h, c, h.Bound(), tol, core.RetrieveOptions{})
			if err != nil {
				return nil, err
			}
			xBytes += planX.Bytes
			switch {
			case !(planX.EstimatedError <= tol):
				xUnreach++
			case grid.MaxAbsDiff(field, recX) > tol:
				xViol++
			}
			recEX, planEX, err := core.RetrieveTolerance(context.Background(), h, c, learned, tol, core.RetrieveOptions{})
			if err != nil {
				return nil, err
			}
			if planEX.EstimatedError <= tol && grid.MaxAbsDiff(field, recEX) > tol {
				exViol++
			}
		}
		if mgardBytes == 0 {
			continue
		}
		avgPSNR := 0.0
		if psnrN > 0 {
			avgPSNR = psnrSum / float64(psnrN)
		}
		table.AddRow(rel, avgPSNR, mgardBytes, dBytes, eBytes,
			100*float64(mgardBytes-dBytes)/float64(mgardBytes),
			100*float64(mgardBytes-eBytes)/float64(mgardBytes),
			dViol, eViol,
			xBytes, 100*float64(mgardBytes-xBytes)/float64(mgardBytes), xViol, xUnreach, exViol)
	}
	return []*Table{table}, nil
}

// Table2 reproduces Table II: the application dataset inventory of this
// reproduction.
func Table2(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "tab2",
		Title: "Application datasets (Table II)",
		Note:  "paper scale: 512³ × 512 steps on Summit; reproduction scale shown",
		Columns: []string{
			"application", "fields", "dimensions", "timesteps", "generator",
		},
	}
	t.AddRow("Gray-Scott", "Du, Dv",
		fmt.Sprintf("%d³", p.GrayScottN), p.Steps, "internal/sim/grayscott (full reaction-diffusion integrator)")
	t.AddRow("WarpX", "Bx, Ex, Jx",
		fmt.Sprintf("%v", p.WarpXDims), p.Steps, "internal/sim/warpx (synthetic laser-wakefield substitute)")
	return []*Table{t}, nil
}
