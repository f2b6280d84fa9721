package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
)

// seededField builds a deterministic smooth-plus-noise field.
func seededField(seed int64, dims ...int) *grid.Tensor {
	rng := rand.New(rand.NewSource(seed))
	f := grid.New(dims...)
	data := f.Data()
	for i := range data {
		data[i] = math.Sin(float64(i)/17.0) + 0.05*rng.NormFloat64()
	}
	return f
}

// TestCompressParallelGoldenEquivalence is the golden equivalence test of
// the concurrency work: the full refactored artifact — every compressed
// (level, plane) segment, the per-level error matrices, and the marshaled
// header (manifest) bytes — must be byte-for-byte identical at every worker
// count.
func TestCompressParallelGoldenEquivalence(t *testing.T) {
	f := seededField(77, 17, 17, 17)
	mkCfg := func(workers int) Config {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		return cfg
	}
	ref, err := Compress(f, mkCfg(1), "golden-par", 3)
	if err != nil {
		t.Fatal(err)
	}
	refManifest, err := json.Marshal(&ref.Header)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		c, err := Compress(f, mkCfg(workers), "golden-par", 3)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		manifest, err := json.Marshal(&c.Header)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(manifest, refManifest) {
			t.Fatalf("workers=%d: manifest bytes differ from sequential", workers)
		}
		for l, lm := range c.Header.Levels {
			for b, e := range lm.ErrMatrix {
				if math.Float64bits(e) != math.Float64bits(ref.Header.Levels[l].ErrMatrix[b]) {
					t.Fatalf("workers=%d: ErrMatrix[%d][%d] differs", workers, l, b)
				}
			}
			for k := 0; k < c.Header.Planes; k++ {
				seg, err := c.Segment(context.Background(), l, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Segment(context.Background(), l, k)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(seg, want) {
					t.Fatalf("workers=%d: segment (%d,%d) differs from sequential", workers, l, k)
				}
			}
		}
	}
}

// TestRetrieveParallelGoldenEquivalence asserts the read path's determinism:
// reconstructions are bit-identical at every worker count, through both the
// plain and the reduced-resolution retrieval.
func TestRetrieveParallelGoldenEquivalence(t *testing.T) {
	f := seededField(78, 17, 17, 17)
	c, err := Compress(f, DefaultConfig(), "golden-par", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	plan, err := retrieval.ExactPlan(h.LevelInfos(), h.TheoryBound(), h.AbsTolerance(1e-4), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Retrieve(context.Background(), h, c, plan, RetrieveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resPlanes := make([]int, len(h.Levels))
	for l := 0; l < 3; l++ {
		resPlanes[l] = 12
	}
	wantCoarse, _, err := RetrieveResolution(context.Background(), h, c, resPlanes, 2, RetrieveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Retrieve(context.Background(), h, c, plan, RetrieveOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got.Data() {
			if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
				t.Fatalf("workers=%d: sample %d differs", workers, i)
			}
		}
		gotCoarse, _, err := RetrieveResolution(context.Background(), h, c, resPlanes, 2, RetrieveOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range gotCoarse.Data() {
			if math.Float64bits(v) != math.Float64bits(wantCoarse.Data()[i]) {
				t.Fatalf("workers=%d: coarse sample %d differs", workers, i)
			}
		}
	}
}
