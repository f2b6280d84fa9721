package decompose

import (
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"pmgard/internal/interleave"
)

// TestSplitMatchesPlanExtract holds the one-pass level split to the index
// plan: over ranks 1–4 with extents mixing 1, 2, 3, 4, 5, 9 and 17, at every
// level count from 1 to a hierarchy deeper than the grid resolves, each
// level's stream equals Plan.Extract of the same grid bit for bit, and the
// finest level is the front of the grid it was split from, capped at its
// own length.
func TestSplitMatchesPlanExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	extents := []int{1, 2, 3, 4, 5, 9, 17}
	var shapes [][]int
	for _, a := range extents {
		shapes = append(shapes, []int{a})
		for _, b := range extents {
			shapes = append(shapes, []int{a, b})
		}
	}
	for i := 0; i < 40; i++ {
		shape := make([]int, 3+i%2)
		for d := range shape {
			shape[d] = extents[rng.Intn(len(extents))]
		}
		shapes = append(shapes, shape)
	}
	for _, dims := range shapes {
		n, widest := 1, 1
		for _, d := range dims {
			n *= d
			widest = max(widest, d)
		}
		for levels := 1; levels <= bits.Len(uint(widest-1))+2; levels++ {
			data := make([]float64, n)
			for i := range data {
				data[i] = rng.NormFloat64()
			}
			plan, err := interleave.NewPlan(dims, levels)
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]float64, levels)
			for l := range want {
				want[l] = plan.Extract(data, l, nil)
			}
			sizes, err := interleave.LevelSizes(dims, levels)
			if err != nil {
				t.Fatal(err)
			}
			got := split(data, dims, sizes)
			for l := range want {
				if len(got[l]) != len(want[l]) || cap(got[l]) != len(want[l]) {
					t.Fatalf("dims %v levels %d level %d: len %d cap %d, want %d", dims, levels, l, len(got[l]), cap(got[l]), len(want[l]))
				}
				for i := range want[l] {
					if math.Float64bits(got[l][i]) != math.Float64bits(want[l][i]) {
						t.Fatalf("dims %v levels %d level %d: coefficient %d = %v, want %v", dims, levels, l, i, got[l][i], want[l][i])
					}
				}
			}
			if fine := got[levels-1]; len(fine) > 0 && &fine[0] != &data[0] {
				t.Fatalf("dims %v levels %d: the finest level is not in place", dims, levels)
			}
		}
	}
}

// TestPlanConcurrentFirstUse has a decomposition's first Plan calls race:
// every caller must get interleave's memoized plan of the shape (run it
// under -race).
func TestPlanConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	d, err := Decompose(randomTensor(rng, 9, 17, 5), DefaultOptions(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := interleave.NewPlan([]int{9, 17, 5}, DefaultOptions().Levels)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*interleave.Plan, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = d.Plan()
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p != want {
			t.Fatalf("caller %d got plan %p, want the memoized %p", i, p, want)
		}
	}
}
