package experiments

import (
	"context"
	"fmt"

	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/nn"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/warpx"
)

// AblateLoss compares D-MGARD trained under Huber (the paper's choice,
// §III-C), MSE and MAE, reporting the exact-hit and within-one-plane rates
// on held-out timesteps — the empirical argument behind Eq. 5.
func AblateLoss(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	half := p.Steps / 2
	train, err := harvestRange(p, "Jx", warpxProvider(p, "Jx"), 0, half)
	if err != nil {
		return nil, err
	}
	test, err := harvestRange(p, "Jx", warpxProvider(p, "Jx"), half, p.Steps)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "ablate-loss",
		Title:   "D-MGARD loss-function ablation (WarpX Jx, held-out timesteps)",
		Columns: []string{"loss", "exact_pct", "within1_pct", "worst_abs_err"},
	}
	for _, lossName := range []string{"huber", "mse", "mae"} {
		loss, err := nn.LossByName(lossName)
		if err != nil {
			return nil, err
		}
		cfg := p.DTrain
		cfg.Loss = loss
		m, err := trainD(train, p, cfg)
		if err != nil {
			return nil, err
		}
		exact, within1, worst, err := evalD(m, test)
		if err != nil {
			return nil, err
		}
		table.AddRow(lossName, exact, within1, worst)
	}
	return []*Table{table}, nil
}

// AblateChain compares the paper's chained multi-output regression against
// independent per-level MLPs (the baseline [22] argues against).
func AblateChain(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	half := p.Steps / 2
	train, err := harvestRange(p, "Jx", warpxProvider(p, "Jx"), 0, half)
	if err != nil {
		return nil, err
	}
	test, err := harvestRange(p, "Jx", warpxProvider(p, "Jx"), half, p.Steps)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "ablate-chain",
		Title:   "CMOR chaining vs independent per-level MLPs (WarpX Jx)",
		Columns: []string{"variant", "exact_pct", "within1_pct", "worst_abs_err"},
	}
	for _, variant := range []struct {
		name        string
		independent bool
	}{{"chained (CMOR)", false}, {"independent", true}} {
		cfg := p.DTrain
		cfg.Independent = variant.independent
		m, err := trainD(train, p, cfg)
		if err != nil {
			return nil, err
		}
		exact, within1, worst, err := evalD(m, test)
		if err != nil {
			return nil, err
		}
		table.AddRow(variant.name, exact, within1, worst)
	}
	return []*Table{table}, nil
}

// AblateUpdate compares the multilevel transform with and without the
// L2-projection-style update lifting step: coefficient decay, stored size
// and theory-controlled retrieval cost at a fixed tolerance.
func AblateUpdate(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	field, err := warpxField(warpx.DefaultConfig(p.WarpXDims...), "Ex", t)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "ablate-update",
		Title:   fmt.Sprintf("Transform update step ablation (WarpX Ex, t=%d, rel bound 1e-5)", t),
		Columns: []string{"variant", "theory_C", "stored_bytes", "retrieved_bytes", "achieved_err"},
	}
	for _, variant := range []struct {
		name   string
		update bool
	}{{"interpolation-only", false}, {"with L2 update", true}} {
		cfg := p.Compress
		cfg.Decompose = codec.Options{Levels: cfg.Decompose.Levels, Update: variant.update, UpdateWeight: 0.25}
		if cfg.Decompose.Levels == 0 {
			cfg.Decompose.Levels = 5
		}
		c, err := core.Compress(field, cfg, "Ex", t)
		if err != nil {
			return nil, err
		}
		h := &c.Header
		tol := h.AbsTolerance(1e-5)
		rec, plan, err := core.RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), tol, core.RetrieveOptions{})
		if err != nil {
			return nil, err
		}
		table.AddRow(variant.name, h.TheoryEstimator().C, h.TotalBytes(), plan.Bytes,
			grid.MaxAbsDiff(field, rec))
	}
	return []*Table{table}, nil
}

// AblateGreedy compares MGARD's greedy accuracy-efficiency plane order
// against a naive level-major order (fill the coarsest level completely,
// then the next) at equal theory-estimated error.
func AblateGreedy(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	c, err := compressWarpX(p, "Jx", t)
	if err != nil {
		return nil, err
	}
	h := &c.Header
	infos := h.LevelInfos()
	est := h.TheoryEstimator()
	table := &Table{
		ID:      "ablate-greedy",
		Title:   fmt.Sprintf("Greedy accuracy-efficiency vs level-major retrieval order (WarpX Jx, t=%d)", t),
		Columns: []string{"rel_bound", "greedy_bytes", "levelmajor_bytes", "greedy_saving_pct"},
	}
	for _, rel := range thinBounds(p.Bounds, 7) {
		tol := h.AbsTolerance(rel)
		if tol <= 0 {
			continue
		}
		greedy, err := retrieval.GreedyPlan(infos, est, tol)
		if err != nil {
			return nil, err
		}
		lm, err := levelMajorPlan(infos, est, tol)
		if err != nil {
			return nil, err
		}
		saving := 0.0
		if lm.Bytes > 0 {
			saving = 100 * float64(lm.Bytes-greedy.Bytes) / float64(lm.Bytes)
		}
		table.AddRow(rel, greedy.Bytes, lm.Bytes, saving)
	}
	return []*Table{table}, nil
}

// levelMajorPlan fills bit-planes strictly level by level, coarsest first,
// until the bound clears the tolerance.
func levelMajorPlan(infos []retrieval.LevelInfo, bound retrieval.Bound, tol float64) (retrieval.Plan, error) {
	planes := make([]int, len(infos))
	for l := range infos {
		for b := 1; b <= len(infos[l].PlaneSizes); b++ {
			if bound.At(planes) <= tol {
				break
			}
			planes[l] = b
		}
	}
	plan, err := retrieval.PlanForPlanes(infos, planes)
	if err != nil {
		return retrieval.Plan{}, err
	}
	plan.EstimatedError = bound.At(planes)
	return plan, nil
}

// AblateCodec compares the lossless stage choices: stored footprint and
// retrieval cost at a fixed tolerance.
func AblateCodec(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	field, err := warpxField(warpx.DefaultConfig(p.WarpXDims...), "Jx", t)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "ablate-codec",
		Title:   fmt.Sprintf("Lossless codec ablation (WarpX Jx, t=%d, rel bound 1e-5)", t),
		Columns: []string{"codec", "stored_bytes", "retrieved_bytes", "ratio_vs_raw"},
	}
	var rawStored int64
	for _, codec := range []lossless.Codec{lossless.Raw(), lossless.Deflate()} {
		cfg := p.Compress
		cfg.Codec = codec
		c, err := core.Compress(field, cfg, "Jx", t)
		if err != nil {
			return nil, err
		}
		h := &c.Header
		tol := h.AbsTolerance(1e-5)
		_, plan, err := core.RetrieveTolerance(context.Background(), h, c, h.TheoryEstimator(), tol, core.RetrieveOptions{})
		if err != nil {
			return nil, err
		}
		if codec.Name() == "raw" {
			rawStored = h.TotalBytes()
		}
		ratio := 0.0
		if rawStored > 0 {
			ratio = float64(h.TotalBytes()) / float64(rawStored)
		}
		table.AddRow(codec.Name(), h.TotalBytes(), plan.Bytes, ratio)
	}
	return []*Table{table}, nil
}

// trainD trains a D-MGARD model from harvested records with an
// experiment-specific config.
func trainD(records []dmgard.Record, p Params, cfg dmgard.Config) (*dmgard.Model, error) {
	return dmgard.Train(records, p.Compress.Planes, cfg)
}

// evalD reports the exact-hit %, within-one-plane % and worst absolute
// plane error of a model over records.
func evalD(m *dmgard.Model, records []dmgard.Record) (exact, within1, worst float64, err error) {
	total := 0
	exactN, within1N := 0, 0
	for _, r := range records {
		pred, perr := m.Predict(r.Features, r.AchievedErr)
		if perr != nil {
			return 0, 0, 0, perr
		}
		for l := range pred {
			d := pred[l] - r.Planes[l]
			if d < 0 {
				d = -d
			}
			if d == 0 {
				exactN++
			}
			if d <= 1 {
				within1N++
			}
			if float64(d) > worst {
				worst = float64(d)
			}
			total++
		}
	}
	if total == 0 {
		return 0, 0, 0, fmt.Errorf("experiments: no evaluation records")
	}
	return 100 * float64(exactN) / float64(total), 100 * float64(within1N) / float64(total), worst, nil
}
