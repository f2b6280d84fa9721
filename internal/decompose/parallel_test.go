package decompose

import (
	"math/rand"
	"testing"

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
		for _, opt := range []Options{
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
// the sequential inverse bit for bit, including through RecomposeLevel.
func TestRecomposeWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := randomTensor(rng, 17, 17, 17)
	opt := Options{Levels: 4, Update: true, UpdateWeight: 0.25}
	seq, err := Decompose(f, opt, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Recompose()
	wantCoarse, err := seq.RecomposeLevel(2)
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
		gotCoarse, err := par.RecomposeLevel(2)
		if err != nil {
			t.Fatal(err)
		}
		if d := grid.MaxAbsDiff(wantCoarse, gotCoarse); d != 0 {
			t.Fatalf("workers %d: RecomposeLevel differs by %g", workers, d)
		}
	}
}

// TestSetWorkersRoundTrip checks the worker count survives the setter and
// a parallel round trip is still exact.
func TestSetWorkersRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := randomTensor(rng, 33, 33)
	d, err := Decompose(f, Options{Levels: 5, Update: true, UpdateWeight: 0.25}, 4, nil)
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
