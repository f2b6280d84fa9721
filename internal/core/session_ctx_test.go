package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// blockingSource wraps a storage.SegmentSource and blocks reads at or
// beyond a trigger count until the gate closes or ctx ends.
type blockingSource struct {
	inner   storage.SegmentSource
	gate    chan struct{}
	after   int64
	reads   atomic.Int64
	started chan struct{} // closed once a read blocks on the gate
	once    atomic.Bool
}

func (b *blockingSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if b.reads.Add(1) > b.after {
		if b.once.CompareAndSwap(false, true) {
			close(b.started)
		}
		select {
		case <-b.gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return b.inner.Segment(ctx, level, plane)
}

func sessionField(t *testing.T) (*Header, *Compressed) {
	t.Helper()
	tensor := grid.New(17, 13)
	data := tensor.Data()
	for i := range data {
		data[i] = float64(i%19) - 9.5
	}
	cfg := DefaultConfig()
	cfg.Decompose.Levels = 2
	c, err := Compress(tensor, cfg, "ctxfield", 0)
	if err != nil {
		t.Fatal(err)
	}
	return &c.Header, c
}

func TestRefineCtxCancellationLeavesSessionResumable(t *testing.T) {
	h, c := sessionField(t)
	src := &blockingSource{inner: c, gate: make(chan struct{}), after: 3, started: make(chan struct{})}
	sess, err := NewSession(h, src)
	if err != nil {
		t.Fatal(err)
	}
	est := h.TheoryBound()
	tol := h.AbsTolerance(1e-4)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := sess.Refine(ctx, est, tol)
		done <- err
	}()
	<-src.started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled refine err = %v, want Canceled", err)
	}
	// The session retained the planes fetched before cancellation...
	fetched := sess.Fetched()
	var kept int
	for _, n := range fetched {
		kept += n
	}
	if kept == 0 {
		t.Fatal("cancelled refine retained no fetched planes")
	}
	readsBefore := src.reads.Load()

	// ...and a later refine resumes, paying only for the remainder.
	close(src.gate)
	rec, plan, deg, err := sess.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatalf("resumed refine: %v", err)
	}
	if deg != nil {
		t.Fatalf("resumed refine degraded: %+v", deg)
	}
	if rec == nil || plan.EstimatedError > tol {
		t.Fatalf("resumed refine: est err %g > tol %g", plan.EstimatedError, tol)
	}
	var want int
	for _, n := range plan.Planes {
		want += n
	}
	resumedReads := src.reads.Load() - readsBefore
	if resumedReads >= int64(want) {
		t.Fatalf("resume re-read everything: %d reads for a %d-plane plan with %d planes kept",
			resumedReads, want, kept)
	}

	// The reconstruction matches a fresh uncancelled session's.
	fresh, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, _, err := fresh.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rec.Data(), ref.Data()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("resumed reconstruction diverges at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestRefineCtxSharedSessionCancellation(t *testing.T) {
	h, c := sessionField(t)
	src := &blockingSource{inner: c, gate: make(chan struct{}), after: 2, started: make(chan struct{})}
	cache := servecache.New(0, nil)
	sess, err := openShared(h, src, cache)
	if err != nil {
		t.Fatal(err)
	}
	est := h.TheoryBound()
	tol := h.AbsTolerance(1e-4)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := sess.Refine(ctx, est, tol)
		done <- err
	}()
	<-src.started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled shared refine err = %v, want Canceled", err)
	}

	// A second session over the same cache completes after the stall clears.
	close(src.gate)
	other, err := openShared(h, src, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, deg, err := other.Refine(context.Background(), est, tol); err != nil || deg != nil {
		t.Fatalf("sibling session after cancellation: deg=%v err=%v", deg, err)
	}
}
