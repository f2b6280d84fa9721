package experiments

import (
	"context"
	"fmt"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/decompose"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/features"
	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/warpx"
)

// AblatePool studies E-MGARD's pooled-input size: the paper's encoder takes
// the raw coefficient level (2048-wide first layer); this reproduction pools
// levels to a fixed vector first. Larger pools see more structure but cost
// more to store in every header.
func AblatePool(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	half := p.Steps / 2
	table := &Table{
		ID:      "ablate-pool",
		Title:   "E-MGARD pooled-input size ablation (WarpX Jx)",
		Note:    "held-out timesteps; pred/true is the error-estimate ratio (1 = perfect)",
		Columns: []string{"pool_size", "median_pred_over_true", "within_3x_pct", "overshoot_pct"},
	}
	for _, poolSize := range []int{8, 32, 64, 128} {
		cfg := p.Compress
		cfg.PoolSize = poolSize
		_, samples, err := harvestBoth(cfg, p.Bounds, "Jx", warpxProvider(p, "Jx"), 0, half)
		if err != nil {
			return nil, err
		}
		m, err := emgard.Train(samples, p.ETrain)
		if err != nil {
			return nil, err
		}
		// Evaluate estimate quality on held-out timesteps.
		var ratios []float64
		within, overshoot, total := 0, 0, 0
		_, heldOut, err := harvestBoth(cfg, thinBounds(p.Bounds, 9), "Jx", warpxProvider(p, "Jx"), half, p.Steps)
		if err != nil {
			return nil, err
		}
		for _, s := range heldOut {
			if s.TrueErr <= 0 {
				continue
			}
			cs, err := m.Constants(s.Pools)
			if err != nil {
				return nil, err
			}
			pred := 0.0
			for l := range cs {
				pred += cs[l] * s.LevelErrs[l]
			}
			r := pred / s.TrueErr
			ratios = append(ratios, r)
			total++
			if r > 1.0/3 && r < 3 {
				within++
			}
			if r < 1 {
				overshoot++ // under-estimate → retrieval would overshoot
			}
		}
		if total == 0 {
			return nil, fmt.Errorf("experiments: pool ablation had no usable samples")
		}
		table.AddRow(poolSize, median(ratios),
			100*float64(within)/float64(total),
			100*float64(overshoot)/float64(total))
	}
	return []*Table{table}, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Insertion sort copy — small slices only.
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}

// AblateAugment compares D-MGARD with and without feature-jitter
// augmentation: sweeps yield one feature vector per timestep, and the
// un-augmented model memorizes them, collapsing on held-out timesteps.
func AblateAugment(p Params) ([]*Table, error) {
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
		ID:      "ablate-augment",
		Title:   "D-MGARD feature-jitter augmentation ablation (WarpX Jx, held-out timesteps)",
		Columns: []string{"variant", "exact_pct", "within1_pct", "worst_abs_err"},
	}
	for _, variant := range []struct {
		name    string
		augment int
	}{{"augmented (x3)", 3}, {"no augmentation", 1}} {
		cfg := p.DTrain
		cfg.Augment = variant.augment
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

// AblateSession measures what the progressive Session saves versus
// independent one-shot retrievals when an analyst tightens the tolerance
// stepwise — the workflow the whole bit-plane design exists for.
func AblateSession(p Params) ([]*Table, error) {
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
	est := h.TheoryBound()
	sess, err := core.NewSession(h, c)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "ablate-session",
		Title:   fmt.Sprintf("Progressive session vs one-shot retrievals (WarpX Jx, t=%d)", t),
		Note:    "an analyst tightens the tolerance stepwise; the session only reads deltas",
		Columns: []string{"rel_bound", "session_total_bytes", "oneshot_cumulative_bytes", "achieved_err"},
	}
	var oneShotCum int64
	for _, rel := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6} {
		tol := h.AbsTolerance(rel)
		// The session keeps what it holds and fetches the rest of the
		// greedy plan, as MGARD's progressive retriever does.
		greedy, err := retrieval.Greedy(h.LevelInfos(), est, tol)
		if err != nil {
			return nil, err
		}
		rec, err := sess.RefineTo(context.Background(), greedy.Planes)
		if err != nil {
			return nil, err
		}
		oneShotCum += greedy.Bytes
		table.AddRow(rel, sess.BytesFetched(), oneShotCum, grid.MaxAbsDiff(field, rec))
	}
	return []*Table{table}, nil
}

// AblateConstant separates the sources of theory-control overhead: the
// naive compounded constant (Eq. 6 as implemented by the early works), the
// exact per-level constants every read path plans with (Header.Bound) and
// E-MGARD's learned per-level constants, all driving the same greedy
// retriever on the same field.
func AblateConstant(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	_, em, err := trainBothModels(p)
	if err != nil {
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
	cs, err := em.Constants(h.LevelPools)
	if err != nil {
		return nil, err
	}
	backend, err := codec.ByID(h.Codec())
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "ablate-constant",
		Title:   fmt.Sprintf("Error-control constant ablation (WarpX Jx, t=%d)", t),
		Note:    fmt.Sprintf("naive C=%.4g, exact C_l=%.4g, E-MGARD constants learned per level", h.TheoryBound().C, backend.LevelAmplification(h.Dims, h.CodecOptions())),
		Columns: []string{"rel_bound", "naive_bytes", "exact_bytes", "emgard_bytes", "naive_err", "exact_err", "emgard_err"},
	}
	// One measured sweep per bound; they share the bounds, so their points
	// line up.
	var cols [3][]core.SweepPoint
	for i, bound := range []retrieval.Bound{h.TheoryBound(), h.Bound(), retrieval.PerLevel(h.LevelInfos(), cs)} {
		if cols[i], err = core.SweepBounds(context.Background(), h, c, field, bound, thinBounds(p.Bounds, 7)); err != nil {
			return nil, err
		}
	}
	for i, n := range cols[0] {
		x, e := cols[1][i], cols[2][i]
		table.AddRow(n.RelBound, n.Plan.Bytes, x.Plan.Bytes, e.Plan.Bytes, n.AchievedErr, x.AchievedErr, e.AchievedErr)
	}
	return []*Table{table}, nil
}

// AblateEncoding compares nega-binary (MGARD's choice) against
// sign-magnitude bit-plane encoding of the same quantized coefficient level:
// error decay per plane and compressed plane footprint.
func AblateEncoding(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	field, err := warpxField(warpx.DefaultConfig(p.WarpXDims...), "Jx", t)
	if err != nil {
		return nil, err
	}
	dec, err := decompose.Decompose(field, p.Compress.Decompose, 1, nil)
	if err != nil {
		return nil, err
	}
	// Use the finest level — the one that dominates retrieval size.
	level := dec.Levels() - 1
	coeffs := dec.Coeffs(level)
	codec := lossless.Deflate()

	table := &Table{
		ID:    "ablate-encoding",
		Title: fmt.Sprintf("Nega-binary vs sign-magnitude plane encoding (WarpX Jx, t=%d, level %d)", t, level),
		Note:  "error decay per retrieved plane and deflate-compressed footprint",
		Columns: []string{
			"planes", "negabinary_err", "signmag_err", "negabinary_bytes", "signmag_bytes",
		},
	}
	enc, err := bitplane.EncodeLevel(coeffs, 32, 1, nil)
	if err != nil {
		return nil, err
	}
	smBits, smErr := enc.SignMagnitude(coeffs)
	sizeOf := func(bits [][]byte, upTo int) (int64, error) {
		var total int64
		for k := 0; k < upTo; k++ {
			seg, err := codec.Compress(bits[k])
			if err != nil {
				return 0, err
			}
			total += int64(len(seg))
		}
		return total, nil
	}
	for b := 0; b <= 32; b += 4 {
		sn, err := sizeOf(enc.Bits, b)
		if err != nil {
			return nil, err
		}
		ss, err := sizeOf(smBits, b)
		if err != nil {
			return nil, err
		}
		table.AddRow(b, enc.ErrMatrix[b], smErr[b], sn, ss)
	}
	return []*Table{table}, nil
}

// ExpHybrid evaluates the paper's future-work combination of the two
// models: D-MGARD seeds the plan, E-MGARD's learned estimator refines it.
// Compared against each model alone on held-out timesteps: bytes fetched
// and bound violations.
func ExpHybrid(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	dm, em, err := trainBothModels(p)
	if err != nil {
		return nil, err
	}
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	half := p.Steps / 2
	table := &Table{
		ID:    "exp-hybrid",
		Title: "Hybrid D+E control vs each model alone (WarpX Jx, held-out timesteps)",
		Note:  "paper §IV-E future work: D-MGARD seeds the plan, E-MGARD verifies and refines",
		Columns: []string{
			"rel_bound", "dmgard_bytes", "emgard_bytes", "hybrid_bytes",
			"d_viol", "e_viol", "h_viol",
		},
	}
	for _, rel := range thinBounds(p.Bounds, 7) {
		var dB, eB, hB int64
		dV, eV, hV := 0, 0, 0
		rows := 0
		for t := half; t < p.Steps; t++ {
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
			rows++
			feat := dmgard.CombineFeatures(features.Extract(field, t), h)
			seed, err := dm.Predict(feat, rel)
			if err != nil {
				return nil, err
			}
			recD, planD, err := core.RetrievePlanes(context.Background(), h, c, seed, core.RetrieveOptions{})
			if err != nil {
				return nil, err
			}
			dB += planD.Bytes
			if grid.MaxAbsDiff(field, recD) > tol {
				dV++
			}
			cs, err := em.Constants(h.LevelPools)
			if err != nil {
				return nil, err
			}
			est := retrieval.PerLevel(h.LevelInfos(), cs)
			recE, planE, err := greedyRetrieve(h, c, est, tol)
			if err != nil {
				return nil, err
			}
			eB += planE.Bytes
			if grid.MaxAbsDiff(field, recE) > tol {
				eV++
			}
			recH, planH, err := hybridRetrieve(context.Background(), h, c, seed, est, tol, core.RetrieveOptions{})
			if err != nil {
				return nil, err
			}
			hB += planH.Bytes
			if grid.MaxAbsDiff(field, recH) > tol {
				hV++
			}
		}
		if rows == 0 {
			continue
		}
		table.AddRow(rel, dB, eB, hB, dV, eV, hV)
	}
	return []*Table{table}, nil
}

// ExpMultiField trains D-MGARD on the first half of *all* WarpX fields
// jointly — the per-application training the paper describes ("trained on
// each application dataset") — and compares held-out accuracy against the
// single-field (Jx-only) training of Fig. 9.
func ExpMultiField(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	half := p.Steps / 2
	fields := []string{"Jx", "Bx", "Ex"}

	// Jx-only model (the Fig. 9 baseline).
	single, err := harvestRange(p, "Jx", warpxProvider(p, "Jx"), 0, half)
	if err != nil {
		return nil, err
	}
	mSingle, err := dmgard.Train(single, p.Compress.Planes, p.DTrain)
	if err != nil {
		return nil, err
	}

	// Joint model over all three fields.
	var joint []dmgard.Record
	for _, name := range fields {
		recs, err := harvestRange(p, name, warpxProvider(p, name), 0, half)
		if err != nil {
			return nil, err
		}
		joint = append(joint, recs...)
	}
	mJoint, err := dmgard.Train(joint, p.Compress.Planes, p.DTrain)
	if err != nil {
		return nil, err
	}

	table := &Table{
		ID:    "exp-multifield",
		Title: "Per-application (joint) vs single-field D-MGARD training (WarpX, held-out timesteps)",
		Note:  fmt.Sprintf("single: Jx t∈[0,%d); joint: Jx+Bx+Ex t∈[0,%d)", half, half),
		Columns: []string{
			"eval_field", "single_exact_pct", "single_within1_pct",
			"joint_exact_pct", "joint_within1_pct",
		},
	}
	for _, name := range fields {
		test, err := harvestRange(p, name, warpxProvider(p, name), half, p.Steps)
		if err != nil {
			return nil, err
		}
		se, s1, _, err := evalD(mSingle, test)
		if err != nil {
			return nil, err
		}
		je, j1, _, err := evalD(mJoint, test)
		if err != nil {
			return nil, err
		}
		table.AddRow(name, se, s1, je, j1)
	}
	return []*Table{table}, nil
}

// AblateLevels sweeps the hierarchy depth L: deeper hierarchies give the
// greedy retriever finer granularity (coarse levels are cheap) but compound
// the naive theory constant, widening the pessimism gap the DNN models
// close. The paper fixes L=5; this shows why the choice matters.
func AblateLevels(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	t := midTimestep(p)
	field, err := warpxField(warpx.DefaultConfig(p.WarpXDims...), "Jx", t)
	if err != nil {
		return nil, err
	}
	table := &Table{
		ID:      "ablate-levels",
		Title:   fmt.Sprintf("Hierarchy depth ablation (WarpX Jx, t=%d, rel bound 1e-4)", t),
		Columns: []string{"levels", "theory_C", "stored_bytes", "retrieved_bytes", "achieved_err", "pessimism_x"},
	}
	for _, levels := range []int{2, 3, 5, 7} {
		cfg := p.Compress
		cfg.Decompose = codec.Options{Levels: levels, Update: true, UpdateWeight: 0.25}
		c, err := core.Compress(field, cfg, "Jx", t)
		if err != nil {
			return nil, err
		}
		h := &c.Header
		tol := h.AbsTolerance(1e-4)
		rec, plan, err := greedyRetrieve(h, c, h.TheoryBound(), tol)
		if err != nil {
			return nil, err
		}
		achieved := grid.MaxAbsDiff(field, rec)
		pess := 0.0
		if achieved > 0 {
			pess = tol / achieved
		}
		table.AddRow(levels, h.TheoryBound().C, h.TotalBytes(), plan.Bytes, achieved, pess)
	}
	return []*Table{table}, nil
}
