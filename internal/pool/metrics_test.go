package pool

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"pmgard/internal/obs"
)

func TestRunMetricsCompletedEqualsSubmitted(t *testing.T) {
	const tasks = 97
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			o := obs.New()
			m := NewMetrics(o, "test")
			hits := make([]int, tasks)
			if err := Run(context.Background(), tasks, workers, m, func(_, i int) error {
				hits[i]++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("index %d ran %d times", i, h)
				}
			}
			snap := o.Metrics.Snapshot()
			if got := snap.Counters["pool.test.submitted"]; got != tasks {
				t.Fatalf("submitted = %d, want %d", got, tasks)
			}
			if got := snap.Counters["pool.test.completed"]; got != tasks {
				t.Fatalf("completed = %d, want submitted = %d", got, tasks)
			}
			if got := snap.Gauges["pool.test.queue_depth"]; got != 0 {
				t.Fatalf("queue depth = %g after drain, want 0", got)
			}
			for _, h := range []string{"pool.test.wait_seconds", "pool.test.task_seconds"} {
				hs, ok := snap.Histograms[h]
				if !ok || hs.Count != tasks {
					t.Fatalf("%s count = %+v, want %d observations", h, hs, tasks)
				}
			}
			// Per-worker task counters account for every task exactly once.
			var perWorker int64
			for w := 0; w < workers; w++ {
				perWorker += snap.Counters[fmt.Sprintf("pool.test.worker%d.tasks", w)]
			}
			if perWorker != tasks {
				t.Fatalf("per-worker tasks sum to %d, want %d", perWorker, tasks)
			}
		})
	}
}

func TestRunMetricsNilFallsThrough(t *testing.T) {
	hits := make([]int, 10)
	if err := Run(context.Background(), len(hits), 4, nil, func(_, i int) error {
		hits[i]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
	if m := NewMetrics(nil, "x"); m != nil {
		t.Fatal("NewMetrics(nil) should return nil")
	}
	if m := NewMetrics(&obs.Obs{}, "x"); m != nil {
		t.Fatal("NewMetrics over a metrics-less Obs should return nil")
	}
}

func TestRunMetricsPreservesLowestIndexError(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 2, 8} {
		o := obs.New()
		m := NewMetrics(o, "err")
		err := Run(context.Background(), 50, workers, m, func(_, i int) error {
			switch i {
			case 7:
				return errLow
			case 31:
				return errHigh
			default:
				return nil
			}
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want lowest-index error", workers, err)
		}
		// Every task still completes under the determinism contract.
		if got := o.Metrics.Snapshot().Counters["pool.err.completed"]; got != 50 {
			t.Fatalf("workers=%d: completed = %d, want 50", workers, got)
		}
	}
}

func TestRunChunksMetricsCoversRange(t *testing.T) {
	const n = 103
	for _, workers := range []int{1, 2, 8} {
		o := obs.New()
		m := NewMetrics(o, "chunks")
		covered := make([]int, n)
		if err := RunChunks(n, workers, m, func(_, lo, hi int) error {
			for i := lo; i < hi; i++ {
				covered[i]++
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
		snap := o.Metrics.Snapshot()
		sub, comp := snap.Counters["pool.chunks.submitted"], snap.Counters["pool.chunks.completed"]
		if sub == 0 || sub != comp {
			t.Fatalf("workers=%d: submitted=%d completed=%d", workers, sub, comp)
		}
	}
}
