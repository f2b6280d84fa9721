package codectest

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/grid"
)

// FuzzCodecRoundtrip drives every registered backend with randomized small
// fields and tolerance schedules derived from the fuzz input, asserting the
// two invariants the whole framework rests on: no panics anywhere in the
// pipeline, and every error-controlled retrieval's achieved error within
// the requested absolute bound.
func FuzzCodecRoundtrip(f *testing.F) {
	f.Add(int64(1), uint8(9), uint8(2), uint8(3), float64(1e-3), false)
	f.Add(int64(42), uint8(17), uint8(1), uint8(5), float64(1e-6), true)
	f.Add(int64(-7), uint8(5), uint8(3), uint8(2), float64(0.5), false)
	f.Add(int64(1234), uint8(33), uint8(2), uint8(4), float64(1e-1), true)
	f.Fuzz(func(t *testing.T, seed int64, sizeRaw, rankRaw, levelsRaw uint8, rel float64, rough bool) {
		rank := 1 + int(rankRaw)%3
		levels := 1 + int(levelsRaw)%5
		// Grid side must satisfy (n-1) % 2^(levels-1) == 0 for the level
		// hierarchy; snap the fuzzed size onto the nearest valid side.
		step := 1 << (levels - 1)
		side := step*(1+int(sizeRaw)%3) + 1
		if !(rel > 1e-12 && rel < 10) || math.IsNaN(rel) {
			rel = 1e-3
		}
		dims := make([]int, rank)
		n := 1
		for d := range dims {
			dims[d] = side
			n *= side
		}
		if n > 1<<16 {
			t.Skip("field too large for a fuzz iteration")
		}
		rng := rand.New(rand.NewSource(seed))
		field := grid.New(dims...)
		data := field.Data()
		for i := range data {
			if rough {
				data[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(20)-10)
			} else {
				data[i] = math.Sin(float64(i)*0.05) + 0.1*rng.Float64()
			}
		}
		for _, id := range codec.IDs() {
			cfg := core.DefaultConfig()
			cfg.Backend = id
			cfg.Decompose.Levels = levels
			cfg.Parallelism = 1 + int(seed&3)
			comp, err := core.Compress(field, cfg, "fuzz", 0)
			if err != nil {
				t.Fatalf("%s: Compress(dims=%v levels=%d): %v", id, dims, levels, err)
			}
			h := &comp.Header
			if h.Codec() != id {
				t.Fatalf("%s: header codec = %q", id, h.Codec())
			}
			tol := h.AbsTolerance(rel)
			if tol <= 0 {
				// A constant field has zero range; any plan satisfies it.
				continue
			}
			est := h.TheoryBound()
			// Tolerance schedule: a loose pass, then the fuzzed tolerance —
			// the progressive-session shape with a shared plane decode path.
			s, err := core.NewSession(h, comp)
			if err != nil {
				t.Fatalf("%s: NewSession: %v", id, err)
			}
			for _, scale := range []float64{100, 1} {
				stepTol := tol * scale
				rec, _, deg, err := s.Refine(context.Background(), est, stepTol)
				if err != nil {
					t.Fatalf("%s: Refine(%g): %v", id, stepTol, err)
				}
				if deg != nil {
					t.Fatalf("%s: lossless source reported degradation: %+v", id, deg)
				}
				if got := grid.MaxAbsDiff(field, rec); got > stepTol {
					t.Fatalf("%s: achieved error %g exceeds tolerance %g (dims=%v levels=%d rel=%g rough=%v)",
						id, got, stepTol, dims, levels, rel, rough)
				}
			}
		}
	})
}
