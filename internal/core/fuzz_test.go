package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"pmgard/internal/faults"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// fuzzFixture is the one-time compressed field the fuzz target retrieves
// from; building it per input would drown the fuzzer in compression work.
var fuzzFixture struct {
	once sync.Once
	c    *Compressed
	plan retrieval.Plan
	want *grid.Tensor
}

func fuzzSetup(t testing.TB) {
	fuzzFixture.once.Do(func() {
		f := seededField(5, 9, 9, 9)
		cfg := DefaultConfig()
		cfg.Decompose.Levels = 3
		c, err := Compress(f, cfg, "fuzz", 0)
		if err != nil {
			panic(err)
		}
		h := &c.Header
		plan, err := retrieval.GreedyPlan(h.LevelInfos(), h.TheoryEstimator(), h.AbsTolerance(1e-4))
		if err != nil {
			panic(err)
		}
		want, err := Retrieve(context.Background(), h, c, plan, RetrieveOptions{Workers: 1})
		if err != nil {
			panic(err)
		}
		fuzzFixture.c, fuzzFixture.plan, fuzzFixture.want = c, plan, want
	})
}

// FuzzConcurrentRetrieve drives several concurrent parallel retrievals over
// one shared fault-injecting source behind the retry layer. The property
// under test: for any fault seed, fault rate and worker count, every
// retrieval either fails with a clean error or reconstructs the exact
// reference bytes — and the race detector sees no unsynchronized access
// anywhere in the fetch/decode/recompose fan-out.
func FuzzConcurrentRetrieve(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(2))
	f.Add(int64(7), uint8(20), uint8(4))
	f.Add(int64(42), uint8(45), uint8(8))
	f.Add(int64(-3), uint8(49), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, ratePct, workers uint8) {
		fuzzSetup(t)
		h := &fuzzFixture.c.Header
		rate := float64(ratePct%50) / 100 // [0, 0.49]: retries can win
		flaky := faults.WrapSource(fuzzFixture.c, faults.Config{Seed: seed, TransientRate: rate}, nil)
		pol := storage.DefaultRetryPolicy()
		pol.Sleep = func(time.Duration) {} // keep the fuzzer fast
		src := storage.NewRetryingSource(flaky, pol, nil)

		const retrievers = 3
		var wg sync.WaitGroup
		for g := 0; g < retrievers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := Retrieve(context.Background(), h, src, fuzzFixture.plan, RetrieveOptions{Workers: int(workers % 9)})
				if err != nil {
					return // exhausted retries are a legitimate outcome
				}
				for i, v := range got.Data() {
					if math.Float64bits(v) != math.Float64bits(fuzzFixture.want.Data()[i]) {
						t.Errorf("sample %d differs after faulty retrieval", i)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}
