// Package dmgard implements D-MGARD (§III-C): a chained multi-output
// regression (CMOR) model that predicts, for each coefficient level, the
// number of bit-planes to retrieve, directly from the target maximum
// absolute error and a set of statistical data features.
//
// One MLP is trained per level. The level-l model sees the shared features
// F, the (log-scaled) target error, and the plane counts of levels 0..l-1 —
// ground-truth counts during training (teacher forcing), its own previous
// predictions at inference — exploiting the strong correlation between
// per-level plane counts (Fig. 5a) that independent per-level regressors
// would waste. Models train with the Huber loss (δ=1, Eq. 5) under Adam.
package dmgard

import (
	"fmt"
	"math"
	"math/rand"

	"pmgard/internal/nn"
	"pmgard/internal/obs"
)

// Record is one training sample harvested from a compression sweep: the
// field's features, the achieved maximum absolute error of the
// reconstruction, and the per-level plane counts the original retriever
// chose (§III-C steps 1–2).
type Record struct {
	// Features is the statistical feature vector F of the field.
	Features []float64
	// AchievedErr is the measured max reconstruction error *relative to
	// the field's value range*. Relative errors make the model transfer
	// across fields whose physical units differ by orders of magnitude
	// (the cross-field evaluations of Figs. 9–10) — the same convention
	// the paper's error-bound sweep uses (§IV-A3).
	AchievedErr float64
	// Planes is b_l for each level.
	Planes []int
}

// Config holds the CMOR training hyperparameters.
type Config struct {
	// Hidden lists the hidden-layer widths of each per-level MLP. The
	// paper uses six fully-connected hidden layers (Fig. 6c).
	Hidden []int
	// LeakyAlpha is the negative slope of the leaky-ReLU activations.
	LeakyAlpha float64
	// Epochs, BatchSize and LR configure training (§IV-A4).
	Epochs    int
	BatchSize int
	LR        float64
	// Seed makes initialization and shuffling reproducible.
	Seed int64
	// Loss is the training objective; nil means Huber(δ=1).
	Loss nn.Loss
	// Independent drops the CMOR chaining: each level's model sees only
	// the shared features and the target error, not the earlier levels'
	// plane counts. Used by the chaining ablation; the paper argues (via
	// Fig. 5a) that chaining should win.
	Independent bool
	// Augment replicates each training record this many times with
	// Gaussian jitter on the standardized data features. Compression
	// sweeps yield one distinct feature vector per timestep, so without
	// augmentation the MLP memorizes those few points and extrapolates
	// badly when a test field's statistics drift. 0 uses the default of 3;
	// 1 disables augmentation.
	Augment int
	// JitterStd is the augmentation noise in standardized units (default
	// 0.15).
	JitterStd float64
	// Obs records training telemetry (per-epoch loss gauges, epoch spans,
	// micro-batch counters) when set; nil disables it and never changes the
	// trained weights.
	Obs *obs.Obs
}

// DefaultConfig returns a CPU-friendly version of the paper's training
// setup: six hidden layers, leaky ReLU, Huber loss, Adam. The paper trains
// for 300 epochs at lr=5e-5 on a GPU; this reproduction defaults to fewer,
// larger steps that converge to comparable accuracy at our data scale.
func DefaultConfig() Config {
	return Config{
		Hidden:     []int{32, 32, 32, 32, 32, 32},
		LeakyAlpha: 0.01,
		Epochs:     150,
		BatchSize:  64,
		LR:         2e-3,
		Seed:       1,
	}
}

func (c Config) withDefaults() Config {
	if c.Loss == nil {
		c.Loss = nn.Huber{Delta: 1}
	}
	if c.Augment == 0 {
		c.Augment = 3
	}
	if c.JitterStd == 0 {
		c.JitterStd = 0.15
	}
	return c
}

// Model is a trained D-MGARD predictor.
type Model struct {
	levels      int
	planes      int
	features    int
	independent bool
	scalers     []*nn.Scaler
	nets        []*nn.Sequential
}

// Levels returns the number of per-level models in the chain.
func (m *Model) Levels() int { return m.levels }

// logErr compresses the error's dynamic range for use as a model input.
func logErr(err float64) float64 {
	return math.Log10(err + 1e-300)
}

// inputRow assembles the level-l model input: [F..., log10(err)] plus, when
// chaining, the earlier levels' plane counts b_0..b_{l-1}.
func inputRow(feat []float64, achieved float64, prev []float64, l int, independent bool) []float64 {
	if independent {
		l = 0
	}
	row := make([]float64, 0, len(feat)+1+l)
	row = append(row, feat...)
	row = append(row, logErr(achieved))
	row = append(row, prev[:l]...)
	return row
}

// Train fits the CMOR chain to the records. planes is the bit-plane count B
// used for clamping predictions. All records must agree on feature and
// level counts.
func Train(records []Record, planes int, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(records) == 0 {
		return nil, fmt.Errorf("dmgard: no training records")
	}
	if planes < 1 {
		return nil, fmt.Errorf("dmgard: planes %d < 1", planes)
	}
	nf := len(records[0].Features)
	levels := len(records[0].Planes)
	if levels == 0 {
		return nil, fmt.Errorf("dmgard: records have no levels")
	}
	for i, r := range records {
		if len(r.Features) != nf || len(r.Planes) != levels {
			return nil, fmt.Errorf("dmgard: record %d shape mismatch", i)
		}
		if r.AchievedErr < 0 || math.IsNaN(r.AchievedErr) {
			return nil, fmt.Errorf("dmgard: record %d has invalid error %g", i, r.AchievedErr)
		}
	}

	m := &Model{
		levels:      levels,
		planes:      planes,
		features:    nf,
		independent: cfg.Independent,
		scalers:     make([]*nn.Scaler, levels),
		nets:        make([]*nn.Sequential, levels),
	}
	for l := 0; l < levels; l++ {
		in := nf + 1
		if !cfg.Independent {
			in += l
		}
		x := nn.NewMat(len(records), in)
		y := nn.NewMat(len(records), 1)
		for i, r := range records {
			prev := make([]float64, l)
			for p := 0; p < l; p++ {
				prev[p] = float64(r.Planes[p])
			}
			copy(x.Row(i), inputRow(r.Features, r.AchievedErr, prev, l, cfg.Independent))
			y.Set(i, 0, float64(r.Planes[l]))
		}
		m.scalers[l] = nn.FitScaler(x)
		xs := m.scalers[l].Transform(x)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(l)))
		// Augment: jittered copies of the standardized feature columns
		// (the error and chain inputs stay exact — they are continuous and
		// well covered by the sweep).
		if cfg.Augment > 1 {
			ax := nn.NewMat(xs.Rows*cfg.Augment, xs.Cols)
			ay := nn.NewMat(xs.Rows*cfg.Augment, 1)
			for copyIx := 0; copyIx < cfg.Augment; copyIx++ {
				for i := 0; i < xs.Rows; i++ {
					dst := ax.Row(copyIx*xs.Rows + i)
					copy(dst, xs.Row(i))
					if copyIx > 0 {
						for j := 0; j < nf; j++ {
							dst[j] += rng.NormFloat64() * cfg.JitterStd
						}
					}
					ay.Set(copyIx*xs.Rows+i, 0, y.At(i, 0))
				}
			}
			xs, y = ax, ay
		}
		net := nn.MLP(in, cfg.Hidden, 1, cfg.LeakyAlpha, rng)
		if _, err := nn.Train(net, xs, y, nn.TrainConfig{
			Epochs:    cfg.Epochs,
			BatchSize: cfg.BatchSize,
			Seed:      cfg.Seed + int64(l),
			Loss:      cfg.Loss,
			Optimizer: nn.NewAdam(cfg.LR),
			Obs:       cfg.Obs,
		}); err != nil {
			return nil, fmt.Errorf("dmgard: train level %d: %w", l, err)
		}
		m.nets[l] = net
	}
	return m, nil
}

// winsorize clips standardized inputs to ±4σ so a field whose statistics
// drift outside the training distribution degrades the prediction
// gracefully instead of letting the unbounded MLP extrapolate (training
// sweeps contain one distinct feature vector per timestep, so a modest
// drift can otherwise be tens of σ out).
func winsorize(row []float64) {
	for i, v := range row {
		if v > 4 {
			row[i] = 4
		} else if v < -4 {
			row[i] = -4
		}
	}
}

// PredictFloat runs the chain and returns the unrounded per-level plane
// predictions (Fig. 6b): each level's model consumes the predictions of the
// earlier levels. targetErr is the requested max error relative to the
// field's value range (the same convention as Record.AchievedErr).
func (m *Model) PredictFloat(feat []float64, targetErr float64) ([]float64, error) {
	if len(feat) != m.features {
		return nil, fmt.Errorf("dmgard: got %d features, model trained on %d", len(feat), m.features)
	}
	if targetErr <= 0 || math.IsNaN(targetErr) {
		return nil, fmt.Errorf("dmgard: target error %g must be positive", targetErr)
	}
	out := make([]float64, m.levels)
	for l := 0; l < m.levels; l++ {
		row := inputRow(feat, targetErr, out, l, m.independent)
		m.scalers[l].TransformRow(row)
		winsorize(row)
		x := &nn.Mat{Rows: 1, Cols: len(row), Data: row}
		out[l] = m.nets[l].Forward(x).At(0, 0)
	}
	return out, nil
}

// Predict returns the per-level plane counts for the target relative
// error, rounded and clamped to [0, B] — ready for core.RetrievePlanes.
func (m *Model) Predict(feat []float64, targetErr float64) ([]int, error) {
	raw, err := m.PredictFloat(feat, targetErr)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(raw))
	for l, v := range raw {
		b := int(math.Round(v))
		if b < 0 {
			b = 0
		}
		if b > m.planes {
			b = m.planes
		}
		out[l] = b
	}
	return out, nil
}

// modelFile is the gob representation of a trained model.
type modelFile struct {
	Version     int
	Levels      int
	Planes      int
	Features    int
	Independent bool
	Means       [][]float64
	Stds        [][]float64
	Nets        [][]byte
}

// Save writes the model to path, committing by temp file + rename.
func (m *Model) Save(path string) error {
	mf := modelFile{
		Version:     1,
		Levels:      m.levels,
		Planes:      m.planes,
		Features:    m.features,
		Independent: m.independent,
	}
	var err error
	if mf.Means, mf.Stds, mf.Nets, err = nn.MarshalLevels(m.scalers, m.nets); err == nil {
		err = nn.WriteGobFile(path, mf)
	}
	if err != nil {
		return fmt.Errorf("dmgard: %w", err)
	}
	return nil
}

// Load reads a model written by Save.
func Load(path string) (*Model, error) {
	var mf modelFile
	if err := nn.ReadGobFile(path, &mf); err != nil {
		return nil, fmt.Errorf("dmgard: %w", err)
	}
	if mf.Version != 1 {
		return nil, fmt.Errorf("dmgard: unsupported model version %d", mf.Version)
	}
	m := &Model{
		levels:      mf.Levels,
		planes:      mf.Planes,
		features:    mf.Features,
		independent: mf.Independent,
	}
	var err error
	if m.scalers, m.nets, err = nn.UnmarshalLevels(mf.Levels, mf.Means, mf.Stds, mf.Nets); err != nil {
		return nil, fmt.Errorf("dmgard: %w", err)
	}
	return m, nil
}
