package servecache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedFetch blocks until its gate closes (or ctx ends), then returns the
// payload. It counts calls and remembers whether the flight ctx ended.
type gatedFetch struct {
	gate      chan struct{}
	calls     atomic.Int64
	cancelled atomic.Int64
	raw       []byte
}

// FetchPlanes implements Source: one gated call lands every plane of run.
func (g *gatedFetch) FetchPlanes(ctx context.Context, run Run) []Plane {
	g.calls.Add(1)
	out := make([]Plane, len(run.Planes))
	select {
	case <-g.gate:
		for i := range out {
			out[i] = Plane{Raw: g.raw, Payload: int64(len(g.raw))}
		}
	case <-ctx.Done():
		g.cancelled.Add(1)
		for i := range out {
			out[i].Err = ctx.Err()
		}
	}
	return out
}

func TestGetOrFetchCtxCancelledWaiterDoesNotPoisonSurvivors(t *testing.T) {
	c := New(0, nil)
	g := &gatedFetch{gate: make(chan struct{}), raw: []byte{1, 2, 3}}
	key := Key{Field: "f", Level: 0, Plane: 0}

	// Leader with a short deadline starts the flight.
	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := getOne(c, leaderCtx, key, g)
		leaderDone <- err
	}()
	// Wait until the flight exists so the survivor coalesces onto it.
	waitFor(t, func() bool { return g.calls.Load() == 1 })

	// A survivor with no deadline joins the same flight.
	survivorDone := make(chan struct{})
	var sraw []byte
	var serr error
	go func() {
		defer close(survivorDone)
		sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer scancel()
		sraw, _, _, serr = getOne(c, sctx, key, g)
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		f, ok := c.flights[key]
		return ok && f.waiters == 2
	})

	// Cancel the leader: it must return promptly with its ctx error while
	// the fetch keeps running for the survivor.
	leaderCancel()
	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader did not return")
	}
	if g.cancelled.Load() != 0 {
		t.Fatal("flight fetch was cancelled while a survivor still waited")
	}

	// Release the fetch; the survivor gets the real plane.
	close(g.gate)
	select {
	case <-survivorDone:
	case <-time.After(5 * time.Second):
		t.Fatal("survivor did not complete after the fetch landed")
	}
	if serr != nil {
		t.Fatalf("survivor err = %v", serr)
	}
	if string(sraw) != string(g.raw) {
		t.Fatalf("survivor got %v, want %v", sraw, g.raw)
	}
	if g.calls.Load() != 1 {
		t.Fatalf("fetch ran %d times, want 1 (singleflight)", g.calls.Load())
	}
	if st := c.Stats(); st.Detached != 1 {
		t.Fatalf("Detached = %d, want 1", st.Detached)
	}
	// The flight's result was cached for later callers.
	if _, _, hit, err := getSync(c, key, func() ([]byte, int64, error) {
		t.Fatal("fetch re-ran for a cached plane")
		return nil, 0, nil
	}); err != nil || !hit {
		t.Fatalf("follow-up read: hit=%v err=%v, want cached hit", hit, err)
	}
}

func TestGetOrFetchCtxLastWaiterCancelsFlight(t *testing.T) {
	c := New(0, nil)
	g := &gatedFetch{gate: make(chan struct{}), raw: []byte{9}}
	defer close(g.gate)
	key := Key{Field: "f", Level: 1, Plane: 2}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, err := getOne(c, ctx, key, g)
		done <- err
	}()
	waitFor(t, func() bool { return g.calls.Load() == 1 })
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sole waiter did not return after cancel")
	}
	// With zero waiters left the flight context must be cancelled so the
	// fetch goroutine exits instead of blocking on the gate forever.
	waitFor(t, func() bool { return g.cancelled.Load() == 1 })
	// The failed flight is unregistered, so the next call fetches fresh.
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, ok := c.flights[key]
		return !ok
	})
	if _, _, _, err := getSync(c, key, func() ([]byte, int64, error) {
		return []byte{5}, 1, nil
	}); err != nil {
		t.Fatalf("fresh fetch after abandoned flight: %v", err)
	}
}

func TestGetOrFetchCtxNonCancellableWaiterPinsFlight(t *testing.T) {
	c := New(0, nil)
	g := &gatedFetch{gate: make(chan struct{}), raw: []byte{4, 4}}
	key := Key{Field: "f", Level: 0, Plane: 1}

	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		getOne(c, leaderCtx, key, g)
	}()
	waitFor(t, func() bool { return g.calls.Load() == 1 })

	// A waiter whose ctx cannot be cancelled joins; it can never detach.
	var wg sync.WaitGroup
	wg.Add(1)
	var raw []byte
	var err error
	go func() {
		defer wg.Done()
		raw, _, _, err = getSync(c, key, func() ([]byte, int64, error) {
			t.Error("pinned waiter started its own fetch instead of coalescing")
			return nil, 0, nil
		})
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		f, ok := c.flights[key]
		return ok && f.waiters == 2
	})

	leaderCancel()
	<-leaderDone
	if g.cancelled.Load() != 0 {
		t.Fatal("flight was cancelled despite a pinned non-cancellable waiter")
	}
	close(g.gate)
	wg.Wait()
	if err != nil || string(raw) != string(g.raw) {
		t.Fatalf("pinned waiter got (%v, %v), want the fetched plane", raw, err)
	}
}

func TestGetOrFetchCtxPreCancelledReturnsImmediately(t *testing.T) {
	c := New(0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := getOne(c, ctx, Key{Field: "f"}, sourceFunc(func(context.Context) ([]byte, int64, error) {
		t.Fatal("fetch ran under a pre-cancelled context")
		return nil, 0, nil
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
