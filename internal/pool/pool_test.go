package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"pmgard/internal/obs"
)

func TestClamp(t *testing.T) {
	if got := Clamp(4); got != 4 {
		t.Fatalf("Clamp(4) = %d", got)
	}
	if got := Clamp(1); got != 1 {
		t.Fatalf("Clamp(1) = %d", got)
	}
	for _, w := range []int{0, -1, -100} {
		if got := Clamp(w); got != runtime.GOMAXPROCS(0) {
			t.Fatalf("Clamp(%d) = %d, want GOMAXPROCS %d", w, got, runtime.GOMAXPROCS(0))
		}
	}
}

// TestClampTracksGOMAXPROCS checks that the default worker count follows
// runtime.GOMAXPROCS(0) as it changes, and that explicit counts pass
// through.
func TestClampTracksGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	if got := Clamp(0); got != 1 {
		t.Errorf("GOMAXPROCS=1: Clamp(0) = %d, want 1", got)
	}
	if got := Clamp(-3); got != 1 {
		t.Errorf("GOMAXPROCS=1: Clamp(-3) = %d, want 1", got)
	}

	runtime.GOMAXPROCS(4)
	if got := Clamp(0); got != 4 {
		t.Errorf("GOMAXPROCS=4: Clamp(0) = %d, want 4", got)
	}
	if got := Clamp(-1); got != 4 {
		t.Errorf("GOMAXPROCS=4: Clamp(-1) = %d, want 4", got)
	}
	// Explicit worker counts are never overridden by the hardware default.
	if got := Clamp(2); got != 2 {
		t.Errorf("GOMAXPROCS=4: Clamp(2) = %d, want 2", got)
	}
	if got := Clamp(9); got != 9 {
		t.Errorf("GOMAXPROCS=4: Clamp(9) = %d, want 9", got)
	}
}

func TestRunVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 0} {
		for _, n := range []int{0, 1, 2, 7, 100, 1000} {
			visits := make([]int32, n)
			if err := Run(context.Background(), n, workers, nil, func(_, i int) error {
				atomic.AddInt32(&visits[i], 1)
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestRunWorkerIDsBounded(t *testing.T) {
	const n, workers = 64, 4
	var bad int32
	if err := Run(context.Background(), n, workers, nil, func(worker, _ int) error {
		if worker < 0 || worker >= workers {
			atomic.AddInt32(&bad, 1)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d calls saw an out-of-range worker id", bad)
	}
}

func TestRunReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var ran int32
		err := Run(context.Background(), 100, workers, nil, func(_, i int) error {
			atomic.AddInt32(&ran, 1)
			if i == 13 || i == 77 {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 13 failed" {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
		// Every index runs even after a failure, matching sequential slots.
		if ran != 100 {
			t.Fatalf("workers=%d: ran %d of 100 indices", workers, ran)
		}
	}
}

func TestRunChunksCoverExactly(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 16, 1001} {
			visits := make([]int32, n)
			if err := RunChunks(n, workers, nil, func(_, lo, hi int) error {
				if lo > hi || lo < 0 || hi > n {
					return fmt.Errorf("bad chunk [%d,%d)", lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
				return nil
			}); err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d covered %d times", workers, n, i, v)
				}
			}
		}
	}
}

func TestRunChunksPropagatesError(t *testing.T) {
	want := errors.New("chunk failed")
	err := RunChunks(100, 4, nil, func(_, lo, _ int) error {
		if lo > 0 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// TestRunDeterministicSlots is the contract test for the determinism
// invariant: workers writing to pre-sized slots produce identical output
// for every worker count.
func TestRunDeterministicSlots(t *testing.T) {
	const n = 4096
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = float64(i*i%977) / 3.0
	}
	var want []float64
	for _, workers := range []int{1, 2, 4, 8} {
		got := make([]float64, n)
		if err := Run(context.Background(), n, workers, nil, func(_, i int) error {
			got[i] = ref[i] * ref[i]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d differs", workers, i)
			}
		}
	}
}

func TestRunCtxBackgroundMatchesRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := 64
		got := make([]int, n)
		if err := Run(context.Background(), n, workers, nil, func(_, i int) error {
			got[i] = i + 1
			return nil
		}); err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Fatalf("workers %d: index %d not executed", workers, i)
			}
		}
	}
}

func TestRunCtxLowestErrorWinsOverCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errBoom := errors.New("boom")
	err := Run(ctx, 8, 4, nil, func(_, i int) error {
		if i == 2 {
			cancel()
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want the index error, not the cancellation", err)
	}
}

func TestRunCtxStopsDispatchOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 1 << 20
		err := Run(ctx, n, workers, nil, func(_, i int) error {
			if ran.Add(1) == 8 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got >= n {
			t.Fatalf("workers %d: cancellation did not stop dispatch (%d ran)", workers, got)
		}
		cancel()
	}
}

func TestRunCtxCompletedRunIgnoresLateCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		const n = 16
		err := Run(ctx, n, workers, nil, func(_, i int) error {
			if ran.Add(1) == n {
				cancel() // lands after the last index has run
			}
			return nil
		})
		if err != nil && ran.Load() == n {
			t.Fatalf("workers %d: all %d indices ran but err = %v", workers, n, err)
		}
		cancel()
	}
}

func TestRunMetricsCtxDrainsQueueDepthOnCancel(t *testing.T) {
	o := obs.New()
	m := NewMetrics(o, "ctxtest")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Run(ctx, 100, 4, m, func(_, i int) error { return nil }); err == nil {
		t.Fatal("pre-cancelled instrumented Run returned nil")
	}
	if depth := o.Metrics.Snapshot().Gauges["pool.ctxtest.queue_depth"]; depth != 0 {
		t.Fatalf("queue depth after cancelled fan-out = %v, want 0", depth)
	}
}
