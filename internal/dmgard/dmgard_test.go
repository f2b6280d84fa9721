package dmgard

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/features"
	"pmgard/internal/grid"
	"pmgard/internal/sim/warpx"
)

// syntheticRecords fabricates records with a learnable structure: plane
// counts decrease roughly linearly with log error, offset per level.
func syntheticRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]Record, n)
	for i := range recs {
		feat := make([]float64, 4)
		for j := range feat {
			feat[j] = rng.NormFloat64()
		}
		logE := -8*rng.Float64() - 1 // log10 err in [-9, -1]
		planes := make([]int, 3)
		for l := range planes {
			b := int(math.Round(-2.5*logE - float64(l)*3 + feat[0]))
			if b < 0 {
				b = 0
			}
			if b > 32 {
				b = 32
			}
			planes[l] = b
		}
		recs[i] = Record{Features: feat, AchievedErr: math.Pow(10, logE), Planes: planes}
	}
	return recs
}

func quickConfig() Config {
	return Config{
		Hidden:     []int{24, 24},
		LeakyAlpha: 0.01,
		Epochs:     80,
		BatchSize:  32,
		LR:         3e-3,
		Seed:       1,
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, 32, quickConfig()); err == nil {
		t.Fatal("empty records accepted")
	}
	recs := syntheticRecords(10, 1)
	if _, err := Train(recs, 0, quickConfig()); err == nil {
		t.Fatal("zero planes accepted")
	}
	bad := syntheticRecords(10, 1)
	bad[3].Features = bad[3].Features[:2]
	if _, err := Train(bad, 32, quickConfig()); err == nil {
		t.Fatal("ragged features accepted")
	}
	bad2 := syntheticRecords(10, 1)
	bad2[5].AchievedErr = math.NaN()
	if _, err := Train(bad2, 32, quickConfig()); err == nil {
		t.Fatal("NaN error accepted")
	}
}

func TestTrainLearnsSyntheticMapping(t *testing.T) {
	recs := syntheticRecords(600, 2)
	m, err := Train(recs, 32, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Evaluate on held-out synthetic records from the same distribution.
	test := syntheticRecords(200, 3)
	within1 := 0
	total := 0
	for _, r := range test {
		pred, err := m.Predict(r.Features, r.AchievedErr)
		if err != nil {
			t.Fatal(err)
		}
		for l := range pred {
			if abs := pred[l] - r.Planes[l]; abs <= 1 && abs >= -1 {
				within1++
			}
			total++
		}
	}
	frac := float64(within1) / float64(total)
	if frac < 0.7 {
		t.Fatalf("only %.0f%% of predictions within one plane, want ≥70%%", frac*100)
	}
}

func TestPredictValidation(t *testing.T) {
	m, err := Train(syntheticRecords(50, 4), 32, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([]float64{1}, 0.1); err == nil {
		t.Fatal("wrong feature count accepted")
	}
	if _, err := m.Predict(make([]float64, 4), -1); err == nil {
		t.Fatal("negative error accepted")
	}
	if _, err := m.Predict(make([]float64, 4), math.NaN()); err == nil {
		t.Fatal("NaN error accepted")
	}
}

func TestPredictionsClamped(t *testing.T) {
	m, err := Train(syntheticRecords(100, 5), 16, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Extreme inputs must still produce valid plane counts.
	for _, e := range []float64{1e-30, 1e6} {
		pred, err := m.Predict([]float64{50, -50, 50, -50}, e)
		if err != nil {
			t.Fatal(err)
		}
		for l, b := range pred {
			if b < 0 || b > 16 {
				t.Fatalf("prediction[%d] = %d outside [0,16]", l, b)
			}
		}
	}
}

func TestChainUsesEarlierPredictions(t *testing.T) {
	// The level-1 network input dimension must include level 0's output.
	recs := syntheticRecords(50, 6)
	m, err := Train(recs, 32, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", m.Levels())
	}
	// Feature dim 4 + err → level 0 has 5 inputs, level 2 has 7.
	if got := len(m.scalers[0].Mean); got != 5 {
		t.Fatalf("level 0 input dim = %d, want 5", got)
	}
	if got := len(m.scalers[2].Mean); got != 7 {
		t.Fatalf("level 2 input dim = %d, want 7", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := Train(syntheticRecords(80, 7), 32, quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dmgard.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	feat := []float64{0.5, -1, 2, 0}
	want, err := m.PredictFloat(feat, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.PredictFloat(feat, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for l := range want {
		if want[l] != got[l] {
			t.Fatalf("level %d: loaded model predicts %g, original %g", l, got[l], want[l])
		}
	}
}

func TestLoadRejectsMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// harvest is the offline stage for one field: one theory sweep, converted.
func harvest(field *grid.Tensor, name string, timestep int, bounds []float64) ([]Record, *core.Compressed, error) {
	c, sweep, err := core.TheorySweep(field, core.DefaultConfig(), name, timestep, bounds)
	if err != nil {
		return nil, nil, err
	}
	return Records(field, &c.Header, sweep), c, nil
}

func TestHarvestProducesUsableRecords(t *testing.T) {
	cfg := warpx.DefaultConfig(17, 9, 9)
	field, err := cfg.Field("Jx", 5)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []float64{1e-6, 1e-4, 1e-2, 1e-1}
	recs, c, err := harvest(field, "Jx", 5, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(bounds) {
		t.Fatalf("got %d records, want %d", len(recs), len(bounds))
	}
	for i, r := range recs {
		// Field statistics plus one header feature per level.
		if want := features.Count() + len(c.Header.Levels); len(r.Features) != want {
			t.Fatalf("record %d: %d features, want %d", i, len(r.Features), want)
		}
		if len(r.Planes) != len(c.Header.Levels) {
			t.Fatalf("record %d: %d levels", i, len(r.Planes))
		}
		if r.AchievedErr < 0 {
			t.Fatalf("record %d: negative achieved error", i)
		}
		// The achieved error must satisfy the requested bound.
		if tol := c.Header.AbsTolerance(bounds[i]); r.AchievedErr > tol {
			t.Fatalf("record %d: achieved %g > requested %g", i, r.AchievedErr, tol)
		}
	}
	// Looser bounds need no more planes than tighter ones.
	for l := range recs[0].Planes {
		if recs[0].Planes[l] < recs[len(recs)-1].Planes[l] {
			t.Fatalf("level %d: tighter bound chose fewer planes", l)
		}
	}
}

func TestHarvestValidation(t *testing.T) {
	cfg := warpx.DefaultConfig(9, 9, 9)
	field, _ := cfg.Field("Jx", 0)
	if _, _, err := harvest(field, "Jx", 0, nil); err == nil {
		t.Fatal("empty bounds accepted")
	}
	if _, _, err := harvest(field, "Jx", 0, []float64{-1}); err == nil {
		t.Fatal("negative bound accepted")
	}
}

func TestDefaultRelBounds(t *testing.T) {
	bounds := DefaultRelBounds()
	if len(bounds) != 81 {
		t.Fatalf("got %d bounds, want 81 (paper §IV-A3)", len(bounds))
	}
	if math.Abs(bounds[0]-1e-9) > 1e-24 {
		t.Fatalf("first bound %g, want 1e-9", bounds[0])
	}
	if math.Abs(bounds[80]-9e-1) > 1e-15 {
		t.Fatalf("last bound %g, want 0.9", bounds[80])
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("bounds not increasing at %d", i)
		}
	}
}

// TestSavedModelBytesPinned pins the model file format: the same tiny
// training run must save the same bytes as it did before Save/Load moved to
// the shared nn helpers (digest computed on the parent commit), so files
// written by either side load on the other.
func TestSavedModelBytesPinned(t *testing.T) {
	m, err := Train(syntheticRecords(20, 3), 32, Config{
		Hidden: []int{4}, LeakyAlpha: 0.01, Epochs: 2, BatchSize: 8, LR: 1e-3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dmgard.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "206267e3b802e6020d7db20bcfd4e1561a7453af5054c3ddc403874d7686a09d"
	if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != want {
		t.Fatalf("saved model digest %s, want %s", got, want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("Save left its temp file behind (stat err %v)", err)
	}
}
