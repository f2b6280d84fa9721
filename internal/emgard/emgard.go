// Package emgard implements E-MGARD (§III-D): per-coefficient-level encoder
// networks that learn the error-mapping constants C_l of Eq. 7,
//
//	err ≤ Σ_l C_l · Err[l][b_l],
//
// replacing the single pessimistic mesh-derived constant of Eq. 6. The
// greedy bit-plane retriever is unchanged — only the estimate it stops on
// becomes far tighter, which is where the 20–80% retrieval-size savings
// come from.
//
// Each level has its own encoder MLP (the paper's Enc block, Fig. 8; ReLU
// activations, funnel-shaped hidden layers). Its input is the pooled
// summary of that level's coefficients recorded in the compression header,
// so prediction needs no payload reads. The scalar output is exponentiated
// to keep C_l positive across orders of magnitude. Training is end-to-end
// through the Eq. 7 sum: the loss compares log(Σ C_l·Err_l) against the
// log of the measured reconstruction error, and the gradient is routed back
// into each encoder through its own C_l term.
package emgard

import (
	"fmt"
	"math"
	"math/rand"

	"pmgard/internal/nn"
	"pmgard/internal/obs"
	"pmgard/internal/retrieval"
)

// Sample is one training example: the per-level pooled coefficient
// summaries of a dataset, the per-level truncation errors of one retrieval
// plan, and the measured reconstruction error of that plan.
type Sample struct {
	// Pools[l] is the pooled coefficient summary of level l (from
	// core.Header.LevelPools).
	Pools [][]float64
	// LevelErrs[l] is Err[l][b_l] for the plan.
	LevelErrs []float64
	// TrueErr is the measured max abs reconstruction error of the plan.
	TrueErr float64
}

// Config holds the training hyperparameters.
type Config struct {
	// Hidden lists the encoder's hidden widths. The paper's Enc block is
	// 2048-512-128-8; the default here is the same funnel scaled to the
	// reproduction's pooled input size.
	Hidden []int
	// Epochs, BatchSize and LR configure the optimizer (§IV-A4).
	Epochs    int
	BatchSize int
	LR        float64
	// Seed makes initialization and shuffling reproducible.
	Seed int64
	// Margin scales the learned constants at inference; 1 is the
	// paper-faithful setting, >1 trades some savings for fewer error-bound
	// overshoots.
	Margin float64
	// UnderPenalty multiplies the loss gradient when the model
	// under-estimates the true error (the dangerous direction: an
	// under-estimate makes the retriever stop early and overshoot the
	// user's bound). 1 is symmetric; the default of 2 biases the model
	// mildly conservative, matching the paper's observation that E-MGARD
	// errors land below the bound for most cases (§IV-E).
	UnderPenalty float64
	// Obs records training telemetry (per-epoch log-loss gauge, epoch
	// counters, an emgard.train span) when set; nil disables it and never
	// changes the trained weights.
	Obs *obs.Obs
}

// DefaultConfig returns a CPU-scale version of the paper's E-MGARD
// training setup.
func DefaultConfig() Config {
	return Config{
		Hidden:       []int{64, 32, 8},
		Epochs:       200,
		BatchSize:    64,
		LR:           2e-3,
		Seed:         1,
		Margin:       1,
		UnderPenalty: 2,
	}
}

// Model is a trained E-MGARD estimator factory.
type Model struct {
	levels   int
	poolSize int
	margin   float64
	scalers  []*nn.Scaler
	nets     []*nn.Sequential
	// outLo and outHi bound each level's raw network output to the range
	// seen on the training set, so out-of-distribution pools cannot make
	// exp() extrapolate to absurd constants.
	outLo, outHi []float64
}

// Levels returns the number of coefficient levels the model was trained on.
func (m *Model) Levels() int { return m.levels }

// logPool log-scales a pooled magnitude vector for network input.
func logPool(pool []float64) []float64 {
	out := make([]float64, len(pool))
	for i, v := range pool {
		out[i] = math.Log10(v + 1e-300)
	}
	return out
}

// Train fits per-level encoders to the samples. All samples must agree on
// the level count and pool size.
func Train(samples []Sample, cfg Config) (*Model, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("emgard: no training samples")
	}
	if cfg.Epochs < 1 || cfg.BatchSize < 1 || cfg.LR <= 0 {
		return nil, fmt.Errorf("emgard: invalid training config %+v", cfg)
	}
	if cfg.Margin == 0 {
		cfg.Margin = 1
	}
	if cfg.UnderPenalty == 0 {
		cfg.UnderPenalty = 1
	}
	levels := len(samples[0].Pools)
	if levels == 0 {
		return nil, fmt.Errorf("emgard: samples have no levels")
	}
	poolSize := len(samples[0].Pools[0])
	if poolSize == 0 {
		return nil, fmt.Errorf("emgard: empty pooled summaries")
	}
	// Keep only usable samples and validate shapes.
	var usable []Sample
	for i, s := range samples {
		if len(s.Pools) != levels || len(s.LevelErrs) != levels {
			return nil, fmt.Errorf("emgard: sample %d shape mismatch", i)
		}
		for l := range s.Pools {
			if len(s.Pools[l]) != poolSize {
				return nil, fmt.Errorf("emgard: sample %d level %d pool size %d, want %d",
					i, l, len(s.Pools[l]), poolSize)
			}
		}
		if s.TrueErr <= 0 || math.IsNaN(s.TrueErr) {
			continue // exact reconstructions carry no signal
		}
		sum := 0.0
		for _, e := range s.LevelErrs {
			sum += e
		}
		if sum == 0 {
			continue
		}
		usable = append(usable, s)
	}
	if len(usable) == 0 {
		return nil, fmt.Errorf("emgard: no usable samples (all errors zero)")
	}

	m := &Model{levels: levels, poolSize: poolSize, margin: cfg.Margin}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Per-level input scalers fitted on the log-pooled inputs.
	for l := 0; l < levels; l++ {
		x := nn.NewMat(len(usable), poolSize)
		for i, s := range usable {
			copy(x.Row(i), logPool(s.Pools[l]))
		}
		m.scalers = append(m.scalers, nn.FitScaler(x))
		m.nets = append(m.nets, nn.MLP(poolSize, cfg.Hidden, 1, 0, rng)) // alpha 0 = ReLU
	}

	var params []*nn.Param
	for _, net := range m.nets {
		params = append(params, net.Params()...)
	}
	opt := nn.NewAdam(cfg.LR)
	order := make([]int, len(usable))
	for i := range order {
		order[i] = i
	}

	o := cfg.Obs
	trainSpan := o.Span("emgard.train", nil)
	trainSpan.SetAttr("levels", levels)
	trainSpan.SetAttr("samples", len(usable))
	defer trainSpan.End()
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochLoss, nLoss := 0.0, 0
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			bs := len(batch)

			// Forward every level's encoder on the batch.
			ins := make([]*nn.Mat, levels)
			outs := make([]*nn.Mat, levels)
			for l := 0; l < levels; l++ {
				x := nn.NewMat(bs, poolSize)
				for i, ix := range batch {
					copy(x.Row(i), logPool(usable[ix].Pools[l]))
				}
				ins[l] = m.scalers[l].Transform(x)
				outs[l] = m.nets[l].Forward(ins[l])
			}

			// pred_i = Σ_l exp(out_il)·Err_il; loss = mean (log pred - log true)².
			grads := make([]*nn.Mat, levels)
			for l := range grads {
				grads[l] = nn.NewMat(bs, 1)
			}
			for i, ix := range batch {
				s := usable[ix]
				pred := 0.0
				cs := make([]float64, levels)
				for l := 0; l < levels; l++ {
					cs[l] = math.Exp(clip(outs[l].At(i, 0), -30, 30))
					pred += cs[l] * s.LevelErrs[l]
				}
				if pred <= 0 {
					continue
				}
				diff := math.Log(pred) - math.Log(s.TrueErr)
				epochLoss += diff * diff
				nLoss++
				dLdPred := 2 * diff / pred / float64(bs)
				if diff < 0 {
					// Under-estimate: penalize harder so the retriever
					// rarely stops before the bound is truly met.
					dLdPred *= cfg.UnderPenalty
				}
				for l := 0; l < levels; l++ {
					grads[l].Set(i, 0, dLdPred*s.LevelErrs[l]*cs[l])
				}
			}
			nn.ZeroGrad(params)
			for l := 0; l < levels; l++ {
				m.nets[l].Backward(grads[l])
			}
			opt.Step(params)
		}
		if o != nil {
			o.Counter("emgard.epochs").Add(1)
			o.Gauge("emgard.epoch").Set(float64(epoch))
			if nLoss > 0 {
				o.Gauge("emgard.train_loss").Set(epochLoss / float64(nLoss))
			}
		}
	}
	// Record the training-set output range per level for inference-time
	// clamping.
	m.outLo = make([]float64, levels)
	m.outHi = make([]float64, levels)
	for l := 0; l < levels; l++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range usable {
			row := logPool(s.Pools[l])
			m.scalers[l].TransformRow(row)
			x := &nn.Mat{Rows: 1, Cols: len(row), Data: row}
			out := m.nets[l].Forward(x).At(0, 0)
			if out < lo {
				lo = out
			}
			if out > hi {
				hi = out
			}
		}
		m.outLo[l], m.outHi[l] = lo, hi
	}
	return m, nil
}

func clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Constants predicts the per-level mapping constants for a dataset whose
// header carries the given pooled summaries.
func (m *Model) Constants(pools [][]float64) ([]float64, error) {
	if len(pools) != m.levels {
		return nil, fmt.Errorf("emgard: got %d levels, model trained on %d", len(pools), m.levels)
	}
	cs := make([]float64, m.levels)
	for l, pool := range pools {
		if len(pool) != m.poolSize {
			return nil, fmt.Errorf("emgard: level %d pool size %d, model trained on %d",
				l, len(pool), m.poolSize)
		}
		row := logPool(pool)
		m.scalers[l].TransformRow(row)
		for i, v := range row {
			row[i] = clip(v, -4, 4) // winsorize drifting inputs
		}
		x := &nn.Mat{Rows: 1, Cols: len(row), Data: row}
		out := clip(m.nets[l].Forward(x).At(0, 0), -30, 30)
		if m.outLo != nil {
			out = clip(out, m.outLo[l], m.outHi[l])
		}
		cs[l] = math.Exp(out) * m.margin
	}
	return cs, nil
}

// Estimator builds the Eq. 7 error estimator for a dataset: the drop-in
// replacement for core.Header.TheoryEstimator in the greedy retriever.
func (m *Model) Estimator(pools [][]float64) (retrieval.PerLevelEstimator, error) {
	cs, err := m.Constants(pools)
	if err != nil {
		return retrieval.PerLevelEstimator{}, err
	}
	return retrieval.PerLevelEstimator{C: cs}, nil
}

// modelFile is the gob representation of a trained model.
type modelFile struct {
	Version      int
	Levels       int
	PoolSize     int
	Margin       float64
	OutLo, OutHi []float64
	Means        [][]float64
	Stds         [][]float64
	Nets         [][]byte
}

// Save writes the model to path, committing by temp file + rename.
func (m *Model) Save(path string) error {
	mf := modelFile{
		Version:  1,
		Levels:   m.levels,
		PoolSize: m.poolSize,
		Margin:   m.margin,
		OutLo:    m.outLo,
		OutHi:    m.outHi,
	}
	var err error
	if mf.Means, mf.Stds, mf.Nets, err = nn.MarshalLevels(m.scalers, m.nets); err == nil {
		err = nn.WriteGobFile(path, mf)
	}
	if err != nil {
		return fmt.Errorf("emgard: %w", err)
	}
	return nil
}

// Load reads a model written by Save.
func Load(path string) (*Model, error) {
	var mf modelFile
	if err := nn.ReadGobFile(path, &mf); err != nil {
		return nil, fmt.Errorf("emgard: %w", err)
	}
	if mf.Version != 1 {
		return nil, fmt.Errorf("emgard: unsupported model version %d", mf.Version)
	}
	m := &Model{
		levels:   mf.Levels,
		poolSize: mf.PoolSize,
		margin:   mf.Margin,
		outLo:    mf.OutLo,
		outHi:    mf.OutHi,
	}
	var err error
	if m.scalers, m.nets, err = nn.UnmarshalLevels(mf.Levels, mf.Means, mf.Stds, mf.Nets); err != nil {
		return nil, fmt.Errorf("emgard: %w", err)
	}
	return m, nil
}
