package pmgard

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"path/filepath"
	"testing"

	"pmgard/internal/sim/warpx"
)

// facadeField generates a small WarpX field through the public API types.
func facadeField(t *testing.T) *Tensor {
	t.Helper()
	f, err := warpx.DefaultConfig(17, 9, 9).Field("Ex", 10)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFacadeCompressRetrieve(t *testing.T) {
	field := facadeField(t)
	c, err := Compress(field, DefaultConfig(), "Ex", 10)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	tol := h.AbsTolerance(1e-4)
	rec, plan, err := RetrieveTolerance(context.Background(), h, c, h.TheoryBound(), tol, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(field, rec) > tol {
		t.Fatal("tolerance violated through the facade")
	}
	if plan.Bytes <= 0 || plan.Bytes > h.TotalBytes() {
		t.Fatalf("plan bytes %d out of range", plan.Bytes)
	}
	if PSNR(field, rec) < 20 {
		t.Fatalf("PSNR %v unexpectedly low", PSNR(field, rec))
	}
}

func TestFacadeFileWorkflow(t *testing.T) {
	field := facadeField(t)
	c, err := Compress(field, DefaultConfig(), "Ex", 10)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ex.pmgd")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	h, st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rec, _, err := RetrievePlanes(context.Background(), h, st, []int{8, 8, 8, 8, 8}, RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() != field.Len() {
		t.Fatal("reconstruction size mismatch")
	}
	if st.BytesRead() == 0 {
		t.Fatal("no bytes accounted")
	}
}

func TestFacadeModelTraining(t *testing.T) {
	field := facadeField(t)
	bounds := []float64{1e-6, 1e-4, 1e-2, 1e-1}
	recs, c, err := HarvestDMGARD(field, "Ex", 10, DefaultConfig(), bounds)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := TrainDMGARD(recs, c.Header.Planes, DMGARDConfig{
		Hidden: []int{8}, LeakyAlpha: 0.01, Epochs: 5, BatchSize: 4, LR: 1e-3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	planes, err := dm.Predict(recs[0].Features, recs[0].AchievedErr)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RetrievePlanes(context.Background(), &c.Header, c, planes, RetrieveOptions{}); err != nil {
		t.Fatal(err)
	}

	samples, _, err := HarvestEMGARD(field, "Ex", 10, DefaultConfig(), bounds)
	if err != nil {
		t.Fatal(err)
	}
	em, err := TrainEMGARD(samples, EMGARDConfig{
		Hidden: []int{8}, Epochs: 5, BatchSize: 4, LR: 1e-3, Seed: 1, Margin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := em.Constants(c.Header.LevelPools)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RetrieveTolerance(context.Background(), &c.Header, c, PerLevelBound(&c.Header, cs), c.Header.AbsTolerance(1e-3), RetrieveOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultRelBoundsExported(t *testing.T) {
	if got := len(DefaultRelBounds()); got != 81 {
		t.Fatalf("DefaultRelBounds has %d entries, want 81", got)
	}
}

func TestTensorConstructors(t *testing.T) {
	a := NewTensor(2, 3)
	if a.Len() != 6 {
		t.Fatal("NewTensor size")
	}
	b := TensorFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	if b.At(1, 1) != 4 {
		t.Fatal("TensorFromSlice layout")
	}
}

func TestFacadeSessionAndTiered(t *testing.T) {
	field := facadeField(t)
	c, err := Compress(field, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	s, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Refine(context.Background(), h.TheoryBound(), h.AbsTolerance(1e-2)); err != nil {
		t.Fatal(err)
	}
	hier, err := DefaultHierarchy(len(h.Levels))
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "tiered")
	if err := c.WriteTiered(dir, hier); err != nil {
		t.Fatal(err)
	}
	h2, st, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, _, err := RetrieveTolerance(context.Background(), h2, st, h2.TheoryBound(), h2.AbsTolerance(1e-3), RetrieveOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDataset(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ds")
	w, err := CreateDataset(dir, "demo", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	field := facadeField(t)
	if err := w.Add(field, "Ex", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rec, plan, err := r.Retrieve("Ex", 0, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(field, rec) > 1e-3*field.Range() {
		t.Fatal("dataset retrieval violated tolerance")
	}
	if plan.Bytes <= 0 {
		t.Fatal("no bytes planned")
	}
}

// TestHarvestTrainingDataPinned pins what the offline stage feeds both
// models: the D-MGARD records and E-MGARD samples harvested from one 9³ Jx
// field over the paper's 81 bounds, digested on the commit before the two
// harvests became converters of one sweep on one session. "Training data
// unchanged" is this test, not a manual diff.
func TestHarvestTrainingDataPinned(t *testing.T) {
	field, err := warpx.DefaultConfig(9, 9, 9).Field("Jx", 3)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := HarvestDMGARD(field, "Jx", 3, DefaultConfig(), DefaultRelBounds())
	if err != nil {
		t.Fatal(err)
	}
	samples, _, err := HarvestEMGARD(field, "Jx", 3, DefaultConfig(), DefaultRelBounds())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 81 || len(samples) != 81 {
		t.Fatalf("harvested %d records and %d samples, want 81 each", len(recs), len(samples))
	}
	hash := sha256.New()
	floats := func(vs ...float64) {
		for _, v := range vs {
			binary.Write(hash, binary.LittleEndian, v)
		}
	}
	for _, r := range recs {
		floats(r.Features...)
		floats(r.AchievedErr)
		for _, b := range r.Planes {
			floats(float64(b))
		}
	}
	for _, s := range samples {
		for _, pool := range s.Pools {
			floats(pool...)
		}
		floats(s.LevelErrs...)
		floats(s.TrueErr)
	}
	const want = "8eb5f4c95cb1fbe84a0717172a90e075e029faccc1d3d5c506a8afaec2bc926e"
	if got := hex.EncodeToString(hash.Sum(nil)); got != want {
		t.Fatalf("harvested training data changed: digest %s, want %s", got, want)
	}
}
