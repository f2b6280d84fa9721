package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pmgard/internal/grid"
	"pmgard/internal/leakcheck"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// rendezvousSource holds every read until two are in flight at once, and
// fails a read that waited a second alone — only a real fan-out gets past it.
type rendezvousSource struct {
	src      storage.SegmentSource
	inflight atomic.Int64
	met      chan struct{}
	once     atomic.Bool
}

func (r *rendezvousSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if r.inflight.Add(1) >= 2 && r.once.CompareAndSwap(false, true) {
		close(r.met)
	}
	defer r.inflight.Add(-1)
	select {
	case <-r.met:
	case <-time.After(time.Second):
		return nil, fmt.Errorf("rendezvous: level %d plane %d read alone for 1s: %w", level, plane, storage.ErrTransient)
	}
	return r.src.Segment(ctx, level, plane)
}

// TestFetchFanOutIsConcurrent: Workers > 1 really overlaps plane reads, and
// one worker really is the sequential loop.
func TestFetchFanOutIsConcurrent(t *testing.T) {
	h, c := sharedFixture(t)
	planes := make([]int, len(h.Levels))
	for l := range planes {
		planes[l] = 4
	}
	for _, workers := range []int{4, 1} {
		src := &rendezvousSource{src: c, met: make(chan struct{})}
		_, _, err := RetrievePlanes(context.Background(), h, src, planes, RetrieveOptions{Workers: workers})
		if workers > 1 && err != nil {
			t.Fatalf("workers=%d: %v (plane reads did not overlap)", workers, err)
		}
		if workers == 1 && err == nil {
			t.Fatal("workers=1 completed against a source that needs two reads in flight")
		}
	}
}

// TestFetchFanOutFailureKeepsPrefix pins the fan-out's determinism
// contract: whatever the scheduling, a failure at plane k leaves exactly
// the k planes below it, returns plane k's error, and a later RefineTo pays
// only for planes ≥ k.
func TestFetchFanOutFailureKeepsPrefix(t *testing.T) {
	h, c := sharedFixture(t)
	const level, k, want = 1, 5, 12
	target := make([]int, len(h.Levels))
	for l := range target {
		target[l] = want
	}
	for run := 0; run < 20; run++ {
		reads := &countingSource{src: c}
		src := &gatedSource{src: reads, broken: map[[2]int]bool{{level, k}: true}}
		store, err := NewPlaneStore(h, src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSession(h, store, nil, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RefineTo(context.Background(), target); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("level %d plane %d unavailable", level, k)) {
			t.Fatalf("run %d: err = %v, want plane (%d,%d)'s", run, err, level, k)
		}
		fetched := s.Fetched()
		if fetched[0] != want || fetched[level] != k || fetched[level+1] != 0 {
			t.Fatalf("run %d: fetched %v after a failure at (%d,%d), want [%d %d 0 ...]", run, fetched, level, k, want, k)
		}
		delete(src.broken, [2]int{level, k})
		reads.reads.Store(0)
		rec, err := s.RefineTo(context.Background(), target)
		if err != nil {
			t.Fatalf("run %d: resumed refine: %v", run, err)
		}
		if got, remaining := reads.reads.Load(), int64(want-k+want*(len(target)-level-1)); got != remaining {
			t.Fatalf("run %d: resume issued %d reads, want %d (planes ≥ %d of level %d and the levels above)", run, got, remaining, k, level)
		}
		if run == 0 {
			plan, err := retrieval.PlanForPlanes(h.LevelInfos(), target)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Retrieve(context.Background(), h, c, plan, RetrieveOptions{Workers: 1})
			if err != nil || grid.MaxAbsDiff(rec, want) != 0 {
				t.Fatal("resumed reconstruction differs from an undisturbed one-shot")
			}
		}
	}
}

// TestFetchFanOutCancelLeavesNoGoroutine: a cancelled fan-out returns ctx's
// error only after every worker it started has exited.
func TestFetchFanOutCancelLeavesNoGoroutine(t *testing.T) {
	h, c := sessionField(t)
	baseline := leakcheck.Baseline()
	src := &blockingSource{inner: c, gate: make(chan struct{}), after: 2, started: make(chan struct{})}
	planes := make([]int, len(h.Levels))
	for l := range planes {
		planes[l] = h.Planes
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := RetrievePlanes(ctx, h, src, planes, RetrieveOptions{Workers: 4})
		done <- err
	}()
	<-src.started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fan-out err = %v, want Canceled", err)
	}
	leakcheck.Check(t, baseline, 0)
}
