package decompose

import (
	"math/rand"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/grid"
)

// TestDecomposeWorkersBitIdentical asserts the determinism invariant of the
// parallel transform: every worker count produces coefficients bit-identical
// to the sequential path, on a spread of shapes including non-dyadic and
// degenerate extents.
func TestDecomposeWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][]int{{64}, {33, 33}, {17, 17, 17}, {9, 30}, {5, 6, 7}, {2, 2}, {31}}
	for _, dims := range shapes {
		f := randomTensor(rng, dims...)
		for _, opt := range []codec.Options{
			{Levels: 3},
			{Levels: 4, Update: true, UpdateWeight: 0.25},
		} {
			if opt.Levels > 1 {
				// Shrink hierarchy for tiny grids so the plan stays valid.
				for _, d := range dims {
					for (1<<(opt.Levels-1)) >= d && opt.Levels > 1 {
						opt.Levels--
					}
				}
			}
			ref, err := Decompose(f, opt, 1, nil)
			if err != nil {
				t.Fatalf("dims %v: %v", dims, err)
			}
			for _, workers := range []int{2, 3, 8} {
				par, err := Decompose(f, opt, workers, nil)
				if err != nil {
					t.Fatalf("dims %v workers %d: %v", dims, workers, err)
				}
				for l := 0; l < opt.Levels; l++ {
					a, b := ref.Coeffs(l), par.Coeffs(l)
					for i := range a {
						if a[i] != b[i] {
							t.Fatalf("dims %v workers %d level %d: coeff %d differs (%g vs %g)",
								dims, workers, l, i, a[i], b[i])
						}
					}
				}
			}
		}
	}
}

// TestRecomposeWorkersBitIdentical asserts parallel recomposition matches
// the sequential inverse bit for bit, including through RecomposeInto(upTo).
func TestRecomposeWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randomTensor(rng, 17, 17, 17)
	opt := codec.Options{Levels: 4, Update: true, UpdateWeight: 0.25}
	seq, err := Decompose(f, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Recompose()
	wantCoarse, err := recomposeUpTo(seq, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := Decompose(f, opt, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := par.Recompose()
		if d := grid.MaxAbsDiff(want, got); d != 0 {
			t.Fatalf("workers %d: Recompose differs by %g", workers, d)
		}
		gotCoarse, err := recomposeUpTo(par, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d := grid.MaxAbsDiff(wantCoarse, gotCoarse); d != 0 {
			t.Fatalf("workers %d: RecomposeInto(2) differs by %g", workers, d)
		}
	}
}

// TestSetWorkersRoundTrip checks the worker count survives the setter and
// a parallel round trip is still exact.
func TestSetWorkersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomTensor(rng, 33, 33)
	d, err := Decompose(f, codec.Options{Levels: 5, Update: true, UpdateWeight: 0.25}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", d.Workers())
	}
	d.SetWorkers(0) // hardware default
	if d.Workers() < 1 {
		t.Fatalf("SetWorkers(0) left %d", d.Workers())
	}
	rec := d.Recompose()
	// Same tolerance as the sequential round-trip tests; bitwise equality
	// is guaranteed across worker counts, not across a full round trip.
	if diff := grid.MaxAbsDiff(f, rec); diff > 1e-11 {
		t.Fatalf("parallel round trip error %g", diff)
	}
}

// TestRecomposeIntoAllocsPerStep bounds what a warm in-place recomposition
// allocates: a small constant per refinement step (the step's view, the
// chunk fan-out), never anything per slab or per line — a 33³ grid has 33
// slabs and 1089 lines at the finest step.
func TestRecomposeIntoAllocsPerStep(t *testing.T) {
	const perStep = 16
	f := randomTensor(rand.New(rand.NewSource(5)), 33, 33, 33)
	opt := DefaultOptions()
	work := grid.New(f.Dims()...)
	for _, workers := range []int{1, 2} {
		d, err := Decompose(f, opt, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := d.RecomposeInto(opt.Levels-1, work); err != nil {
				t.Fatal(err)
			}
		})
		if steps := opt.Levels - 1; avg > float64(perStep*steps) {
			t.Fatalf("workers %d: %.1f allocs per RecomposeInto over %d steps, want ≤ %d per step", workers, avg, steps, perStep)
		}
	}
}
