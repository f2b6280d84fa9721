package core

import (
	"context"
	"errors"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pmgard/internal/faults"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// TestWalkerMatchesFreshRetrievals is the walker's conformance table: on
// every backend and every source layout, each stop of a measured walk — the
// zero-plane stop included — must return bit for bit the reconstruction and
// the achieved error a fresh one-shot Retrieve of the same planes returns;
// a stop below what the walk holds is refused naming the level; a lost plane
// and an ended ctx fail the stop they hit and nothing before or after it;
// and a sweep answers in the caller's bound order.
func TestWalkerMatchesFreshRetrievals(t *testing.T) {
	ctx := context.Background()
	f := testField(t)
	sources := []struct {
		name string
		open func(t *testing.T, c *Compressed) (*Header, storage.SegmentSource)
	}{
		{"memory", func(t *testing.T, c *Compressed) (*Header, storage.SegmentSource) { return &c.Header, c }},
		{"pmgd", func(t *testing.T, c *Compressed) (*Header, storage.SegmentSource) {
			path := filepath.Join(t.TempDir(), "f.pmgd")
			if err := c.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			return openForTest(t, path)
		}},
		{"tiered", func(t *testing.T, c *Compressed) (*Header, storage.SegmentSource) {
			hier, err := storage.DefaultHierarchy(len(c.Header.Levels))
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "store")
			if err := c.WriteTiered(dir, hier); err != nil {
				t.Fatal(err)
			}
			return openForTest(t, dir)
		}},
	}
	for _, backend := range []string{"mgard", "interp"} {
		cfg := DefaultConfig()
		cfg.Backend = backend
		c, err := Compress(f, cfg, "Ex", 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, source := range sources {
			t.Run(backend+"/"+source.name, func(t *testing.T) {
				h, src := source.open(t, c)
				steps, err := retrieval.GreedySequence(h.LevelInfos())
				if err != nil {
					t.Fatal(err)
				}
				// The zero-plane stop, every seventh greedy step, the last.
				seq := [][]int{make([]int, len(h.Levels))}
				for i := 3; i < len(steps); i += 7 {
					seq = append(seq, steps[i].Planes)
				}
				seq = append(seq, steps[len(steps)-1].Planes)

				w, err := NewWalker(h, src, f)
				if err != nil {
					t.Fatal(err)
				}
				for i, planes := range seq {
					rec, linf, err := w.Stop(ctx, planes)
					if err != nil {
						t.Fatalf("stop %d %v: %v", i, planes, err)
					}
					fresh, err := Retrieve(ctx, h, src, retrieval.Plan{Planes: planes}, RetrieveOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(rec.Data(), fresh.Data()) {
						t.Fatalf("stop %d %v: reconstruction differs from a fresh Retrieve", i, planes)
					}
					if want := grid.MaxAbsDiff(f, fresh); linf != want {
						t.Fatalf("stop %d %v: achieved error %g, fresh Retrieve achieves %g", i, planes, linf, want)
					}
				}

				// The walk holds every plane: one plane fewer on level 2 is
				// a rewind.
				below := slices.Clone(seq[len(seq)-1])
				below[2]--
				if _, _, err := w.Stop(ctx, below); err == nil || !strings.Contains(err.Error(), "level 2") {
					t.Fatalf("stop below the walk: err = %v, want a refusal naming level 2", err)
				}

				// A permanently lost plane fails the first stop that needs
				// it; the stops before it stand, and the same stop again
				// fails the same way (the walk kept what it could fetch).
				lossy := faults.WrapSource(src, faults.Config{Permanent: []faults.PlaneID{{Level: 1, Plane: 2}}})
				w, err = NewWalker(h, lossy, f)
				if err != nil {
					t.Fatal(err)
				}
				two := []int{2, 2, 2, 2, 2}
				_, before, err := w.Stop(ctx, two)
				if err != nil {
					t.Fatalf("stop short of the lost plane: %v", err)
				}
				for range 2 {
					if _, _, err := w.Stop(ctx, []int{3, 3, 3, 3, 3}); storage.Classify(err) != storage.FaultPermanent {
						t.Fatalf("stop over the lost plane: err = %v, want a permanent fault", err)
					}
				}
				clean, err := NewWalker(h, src, f)
				if err != nil {
					t.Fatal(err)
				}
				if _, want, _ := clean.Stop(ctx, two); before != want {
					t.Fatalf("the stop before the loss measured %g, a clean walk %g", before, want)
				}

				// An ended ctx fails the stop that has to fetch, and the
				// walk resumes under a live one.
				dead, cancel := context.WithCancel(ctx)
				cancel()
				if _, _, err := clean.Stop(dead, []int{3, 3, 3, 3, 3}); !errors.Is(err, context.Canceled) {
					t.Fatalf("stop under a cancelled ctx: err = %v, want context.Canceled", err)
				}
				if _, _, err := clean.Stop(ctx, []int{3, 3, 3, 3, 3}); err != nil {
					t.Fatalf("stop after the cancelled one: %v", err)
				}

				// Bounds given tightest first come back tightest first,
				// each with what a one-shot at that bound achieves.
				rels := []float64{1e-6, 1e-2, 1e-4, 1e-2}
				sweep, err := SweepBounds(ctx, h, src, f, h.TheoryEstimator(), rels)
				if err != nil {
					t.Fatal(err)
				}
				if len(sweep) != len(rels) {
					t.Fatalf("sweep has %d points for %d bounds", len(sweep), len(rels))
				}
				for i, p := range sweep {
					rec, plan, err := RetrieveTolerance(ctx, h, src, h.TheoryEstimator(), h.AbsTolerance(rels[i]), RetrieveOptions{})
					if err != nil {
						t.Fatal(err)
					}
					if p.RelBound != rels[i] || !slices.Equal(p.Plan.Planes, plan.Planes) || p.Plan.Bytes != plan.Bytes || p.AchievedErr != grid.MaxAbsDiff(f, rec) {
						t.Fatalf("sweep point %d = %+v, one-shot at %g: plan %+v", i, p, rels[i], plan)
					}
				}
			})
		}
	}
	if _, err := SweepBounds(ctx, nil, nil, f, nil, nil); err == nil {
		t.Fatal("a sweep of no bounds was accepted")
	}
}

// openForTest opens an artifact and closes it with the test.
func openForTest(t *testing.T, path string) (*Header, storage.SegmentSource) {
	t.Helper()
	h, st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return h, st
}
