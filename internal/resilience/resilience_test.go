package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"pmgard/internal/obs"
)

func TestAdmissionNilAdmitsEverything(t *testing.T) {
	var a *Admission
	for i := 0; i < 100; i++ {
		release, err := a.Acquire(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		release()
	}
	if s := a.Stats(); s != (AdmissionStats{}) {
		t.Fatalf("nil admission stats = %+v, want zeros", s)
	}
	if NewAdmission(0, 10, nil) != nil {
		t.Fatal("NewAdmission(0, _, _) should return nil (unlimited)")
	}
}

func TestAdmissionBoundsInflightAndSheds(t *testing.T) {
	a := NewAdmission(2, 0, nil)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Full, no queue: the third caller is shed immediately.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow Acquire err = %v, want ErrShed", err)
	}
	s := a.Stats()
	if s.Inflight != 2 || s.Shed != 1 || s.Admitted != 2 {
		t.Fatalf("stats = %+v, want inflight 2, shed 1, admitted 2", s)
	}
	r1()
	r2()
	if got := a.Stats().Inflight; got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	// Slots free again: the next caller is admitted.
	r3, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r3()
}

func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	a := NewAdmission(1, 1, nil)
	r1, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		release, err := a.Acquire(context.Background())
		if err == nil {
			release()
		}
		got <- err
	}()
	// Wait for the goroutine to actually enter the queue, then free the
	// slot it is waiting for.
	deadline := time.After(5 * time.Second)
	for a.Stats().Queued == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never entered the queue")
		case <-time.After(time.Millisecond):
		}
	}
	// The queue (cap 1) is full: a third caller sheds.
	if _, err := a.Acquire(context.Background()); !errors.Is(err, ErrShed) {
		t.Fatalf("queue-overflow Acquire err = %v, want ErrShed", err)
	}
	r1()
	if err := <-got; err != nil {
		t.Fatalf("queued Acquire err = %v, want admitted", err)
	}
}

func TestAdmissionQueuedCallerHonorsContext(t *testing.T) {
	a := NewAdmission(1, 4, nil)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire err = %v, want DeadlineExceeded", err)
	}
	if got := a.Stats().Queued; got != 0 {
		t.Fatalf("queued after context expiry = %d, want 0", got)
	}
}

func TestAdmissionConcurrentNeverExceedsBounds(t *testing.T) {
	const inflightCap, queueCap, callers = 3, 2, 32
	o := obs.New()
	a := NewAdmission(inflightCap, queueCap, o)
	var wg sync.WaitGroup
	var admitted, shed sync.Map
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release, err := a.Acquire(context.Background())
			if errors.Is(err, ErrShed) {
				shed.Store(i, true)
				return
			}
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			if got := a.Stats().Inflight; got > inflightCap {
				t.Errorf("inflight %d exceeds cap %d", got, inflightCap)
			}
			admitted.Store(i, true)
			time.Sleep(time.Millisecond)
			release()
		}(i)
	}
	wg.Wait()
	s := a.Stats()
	if s.Inflight != 0 || s.Queued != 0 {
		t.Fatalf("after drain: %+v, want zero inflight and queued", s)
	}
	if s.Admitted+s.Shed != callers {
		t.Fatalf("admitted %d + shed %d != callers %d", s.Admitted, s.Shed, callers)
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["serve.admitted"] != s.Admitted || snap.Counters["serve.shed"] != s.Shed {
		t.Fatalf("registry counters %v disagree with stats %+v", snap.Counters, s)
	}
}
