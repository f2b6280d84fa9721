package storage

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// blockingSource blocks every Segment call until release is closed.
type blockingSource struct {
	release chan struct{}
}

func (b *blockingSource) Segment(_ context.Context, level, plane int) ([]byte, error) {
	<-b.release
	return []byte{1}, nil
}

// TestReadOnceTimeoutDoesNotLeakGoroutines drives many timed-out reads
// against a hung source and asserts the abandoned reader goroutines all
// exit once the source unblocks — the regression test for the per-read
// timeout leaking a goroutine per attempt.
func TestReadOnceTimeoutDoesNotLeakGoroutines(t *testing.T) {
	src := &blockingSource{release: make(chan struct{})}
	pol := DefaultRetryPolicy()
	pol.Timeout = time.Millisecond
	pol.MaxAttempts = 4
	pol.Sleep = func(time.Duration) {}
	r := NewRetryingSource(src, pol)

	before := runtime.NumGoroutine()
	const reads = 16
	for i := 0; i < reads; i++ {
		if _, err := r.Segment(context.Background(), 0, i); err == nil {
			t.Fatal("read against a hung source succeeded")
		}
	}
	// Every attempt parked one reader on the source; unblock them all and
	// they must drain — the non-blocking result send cannot pin them.
	close(src.release)
	deadline := time.After(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("%d goroutines still alive after unblocking (baseline %d)",
				runtime.NumGoroutine(), before)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if got := r.Stats().Exhausted; got != reads {
		t.Fatalf("Exhausted = %d, want %d", got, reads)
	}
}
