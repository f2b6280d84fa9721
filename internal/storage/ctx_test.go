package storage

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// slowSource blocks every Segment call until its gate closes.
type slowSource struct {
	gate  chan struct{}
	calls atomic.Int64
}

func (s *slowSource) Segment(_ context.Context, level, plane int) ([]byte, error) {
	s.calls.Add(1)
	<-s.gate
	return []byte{7}, nil
}

func TestSegmentCtxCancelsInFlightRead(t *testing.T) {
	src := &slowSource{gate: make(chan struct{})}
	defer close(src.gate)
	pol := DefaultRetryPolicy()
	r := NewRetryingSource(src, pol, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := r.Segment(ctx, 0, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want ~20ms", elapsed)
	}
	// The stalled read burned exactly one attempt: cancellation must not
	// keep retrying against the hung tier.
	if got := src.calls.Load(); got != 1 {
		t.Fatalf("source saw %d calls, want 1", got)
	}
}

// transientSource fails every read with a transient error.
type transientSource struct{ calls atomic.Int64 }

func (s *transientSource) Segment(_ context.Context, level, plane int) ([]byte, error) {
	s.calls.Add(1)
	return nil, ErrTransient
}

func TestSegmentCtxInterruptsBackoffSleep(t *testing.T) {
	src := &transientSource{}
	pol := DefaultRetryPolicy()
	pol.MaxAttempts = 1000
	pol.BaseDelay = 50 * time.Millisecond
	pol.MaxDelay = 50 * time.Millisecond
	r := NewRetryingSource(src, pol, nil)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.Segment(ctx, 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// 1000 attempts at 25-50ms backoff each would take ~25s+; cancellation
	// must cut the retry loop short mid-sleep.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want ~10ms", elapsed)
	}
	if got := src.calls.Load(); got > 3 {
		t.Fatalf("source saw %d attempts after cancellation, want ≤ 3", got)
	}
}

func TestSegmentCtxBackgroundMatchesSegment(t *testing.T) {
	src := &countingSource{}
	pol := DefaultRetryPolicy()
	pol.Sleep = func(time.Duration) {}
	r := NewRetryingSource(src, pol, nil)
	// A non-cancellable ctx takes readOnce's goroutine-free path, a
	// cancellable one the supervised path; both must deliver the same read.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	a, errA := r.Segment(context.Background(), 0, 0)
	b, errB := r.Segment(ctx, 0, 1)
	if errA != nil || errB != nil {
		t.Fatalf("errs = %v, %v", errA, errB)
	}
	if string(a) != string(b) {
		t.Fatalf("direct and supervised reads disagree: %q vs %q", a, b)
	}
}

// countingSource returns a fixed payload and counts reads.
type countingSource struct{ calls atomic.Int64 }

func (s *countingSource) Segment(_ context.Context, level, plane int) ([]byte, error) {
	s.calls.Add(1)
	return []byte{42}, nil
}
