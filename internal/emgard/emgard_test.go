package emgard

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/warpx"
)

// syntheticSamples fabricates samples whose true error is a fixed per-level
// weighted sum of the level errors, so a correct implementation can recover
// the weights.
func syntheticSamples(n int, weights []float64, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	levels := len(weights)
	const poolSize = 8
	samples := make([]Sample, n)
	for i := range samples {
		pools := make([][]float64, levels)
		errs := make([]float64, levels)
		trueErr := 0.0
		for l := 0; l < levels; l++ {
			pools[l] = make([]float64, poolSize)
			scale := math.Pow(10, -float64(l))
			for j := range pools[l] {
				pools[l][j] = scale * (0.5 + rng.Float64())
			}
			errs[l] = scale * math.Pow(10, -4*rng.Float64())
			trueErr += weights[l] * errs[l]
		}
		samples[i] = Sample{Pools: pools, LevelErrs: errs, TrueErr: trueErr}
	}
	return samples
}

func quickConfig() Config {
	return Config{Hidden: []int{16, 8}, Epochs: 150, BatchSize: 32, LR: 5e-3, Seed: 1, Margin: 1}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, quickConfig()); err == nil {
		t.Fatal("empty samples accepted")
	}
	s := syntheticSamples(10, []float64{0.5, 0.2}, 1)
	bad := quickConfig()
	bad.Epochs = 0
	if _, err := Train(s, bad); err == nil {
		t.Fatal("zero epochs accepted")
	}
	ragged := syntheticSamples(10, []float64{0.5, 0.2}, 1)
	ragged[2].Pools[1] = ragged[2].Pools[1][:3]
	if _, err := Train(ragged, quickConfig()); err == nil {
		t.Fatal("ragged pools accepted")
	}
	allZero := syntheticSamples(5, []float64{0.5}, 1)
	for i := range allZero {
		allZero[i].TrueErr = 0
	}
	if _, err := Train(allZero, quickConfig()); err == nil {
		t.Fatal("all-zero-error samples accepted")
	}
}

func TestTrainRecoversWeights(t *testing.T) {
	weights := []float64{0.8, 0.3, 0.05}
	m, err := Train(syntheticSamples(500, weights, 2), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate prediction quality on held-out samples: the predicted error
	// Σ C_l·Err_l should track the true error within a small factor.
	test := syntheticSamples(100, weights, 3)
	good := 0
	for _, s := range test {
		cs, err := m.Constants(s.Pools)
		if err != nil {
			t.Fatal(err)
		}
		pred := 0.0
		for l := range cs {
			pred += cs[l] * s.LevelErrs[l]
		}
		ratio := pred / s.TrueErr
		if ratio > 1.0/3 && ratio < 3 {
			good++
		}
	}
	if good < 80 {
		t.Fatalf("only %d/100 predictions within 3x of truth", good)
	}
}

func TestConstantsPositive(t *testing.T) {
	m, err := Train(syntheticSamples(100, []float64{0.5, 0.1}, 4), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSamples(1, []float64{0.5, 0.1}, 5)[0]
	cs, err := m.Constants(s.Pools)
	if err != nil {
		t.Fatal(err)
	}
	for l, c := range cs {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			t.Fatalf("C[%d] = %g, want positive finite", l, c)
		}
	}
}

func TestConstantsValidation(t *testing.T) {
	m, err := Train(syntheticSamples(50, []float64{0.5, 0.1}, 6), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Constants([][]float64{{1}}); err == nil {
		t.Fatal("wrong level count accepted")
	}
	if _, err := m.Constants([][]float64{{1, 2}, {3, 4}}); err == nil {
		t.Fatal("wrong pool size accepted")
	}
}

func TestMarginScalesConstants(t *testing.T) {
	samples := syntheticSamples(100, []float64{0.5, 0.1}, 7)
	cfg := quickConfig()
	m1, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Margin = 2
	m2, err := Train(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := samples[0]
	c1, _ := m1.Constants(s.Pools)
	c2, _ := m2.Constants(s.Pools)
	for l := range c1 {
		if math.Abs(c2[l]-2*c1[l]) > 1e-9*c1[l] {
			t.Fatalf("margin 2 gave C[%d] = %g, want %g", l, c2[l], 2*c1[l])
		}
	}
}

func TestEstimatorIntegratesWithGreedy(t *testing.T) {
	weights := []float64{0.6, 0.2}
	m, err := Train(syntheticSamples(200, weights, 8), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSamples(1, weights, 9)[0]
	cs, err := m.Constants(s.Pools)
	if err != nil {
		t.Fatal(err)
	}
	// One zero-plane level per sample error: the bound at no planes is
	// Σ_l C_l·Err_l, the learned estimate of Eq. 7.
	levels := make([]retrieval.LevelInfo, len(s.LevelErrs))
	for l, e := range s.LevelErrs {
		levels[l] = retrieval.LevelInfo{ErrMatrix: []float64{e}}
	}
	if got := retrieval.PerLevel(levels, cs).At(make([]int, len(levels))); got <= 0 {
		t.Fatalf("learned bound returned %g", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(syntheticSamples(80, []float64{0.5, 0.1}, 10), quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "emgard.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	s := syntheticSamples(1, []float64{0.5, 0.1}, 11)[0]
	want, _ := m.Constants(s.Pools)
	got, err := loaded.Constants(s.Pools)
	if err != nil {
		t.Fatal(err)
	}
	for l := range want {
		if want[l] != got[l] {
			t.Fatalf("level %d: loaded %g, original %g", l, got[l], want[l])
		}
	}
}

func TestHarvestAndTrainOnRealPipeline(t *testing.T) {
	// End-to-end: harvest from a real compression sweep, train, and check
	// that E-MGARD control fetches no more than theory control at equal
	// tolerance while respecting the tolerance reasonably.
	cfg := warpx.DefaultConfig(17, 9, 9)
	field, err := cfg.Field("Ex", 16)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []float64{1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 3e-7, 3e-5, 3e-3, 3e-2, 3e-1}
	c, sweep, err := core.TheorySweep(field, core.DefaultConfig(), "Ex", 16, bounds)
	if err != nil {
		t.Fatal(err)
	}
	samples := Samples(&c.Header, sweep)
	if len(samples) == 0 {
		t.Fatal("no samples harvested")
	}
	m, err := Train(samples, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	cs, err := m.Constants(h.LevelPools)
	if err != nil {
		t.Fatal(err)
	}
	est := retrieval.PerLevel(h.LevelInfos(), cs)
	theory := h.TheoryBound()
	tol := h.AbsTolerance(1e-4)
	_, planTheory, err := core.RetrieveTolerance(context.Background(), h, c, theory, tol, core.RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recE, planE, err := core.RetrieveTolerance(context.Background(), h, c, est, tol, core.RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if planE.Bytes > planTheory.Bytes {
		t.Fatalf("E-MGARD fetched %d bytes > theory %d", planE.Bytes, planTheory.Bytes)
	}
	// The achieved error should stay within an order of magnitude of the
	// tolerance (the paper concedes occasional overshoot, §IV-E).
	if achieved := grid.MaxAbsDiff(field, recE); achieved > 10*tol {
		t.Fatalf("E-MGARD achieved %g, tolerance %g", achieved, tol)
	}
}

// TestSavedModelBytesPinned pins the model file format: the same tiny
// training run must save the same bytes as it did before Save/Load moved to
// the shared nn helpers (digest computed on the parent commit), so files
// written by either side load on the other.
func TestSavedModelBytesPinned(t *testing.T) {
	m, err := Train(syntheticSamples(20, []float64{0.5, 0.1}, 3), Config{
		Hidden: []int{4}, Epochs: 2, BatchSize: 8, LR: 1e-3, Seed: 1, Margin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "emgard.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "409bd4811cd2c189c07d3138311749adc49e8d2889ede311ae5ba7c70d00d007"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Fatalf("saved model digest %s, want %s", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Save left its temp file behind (stat err %v)", err)
	}
}
