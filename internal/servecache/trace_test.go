package servecache

import (
	"context"
	"errors"
	"testing"
	"time"

	"pmgard/internal/obs"
)

// spanCtx returns a cancellable context carrying a fresh root span in tr,
// plus the root (so tests can End it and read the trace).
func spanCtx(tr *obs.Tracer, traceID string) (context.Context, context.CancelFunc, *obs.Span) {
	root := tr.StartTrace("req", traceID)
	ctx, cancel := context.WithCancel(context.Background())
	return obs.ContextWithSpan(ctx, root), cancel, root
}

// findSpan returns the first span with the given name, failing t otherwise.
func findSpan(t *testing.T, spans []obs.SpanRecord, name string) obs.SpanRecord {
	t.Helper()
	for _, rec := range spans {
		if rec.Name == name {
			return rec
		}
	}
	t.Fatalf("no %q span in %+v", name, spans)
	return obs.SpanRecord{}
}

// TestCancelledWaiterSpanStatus extends the detach contract to tracing: a
// waiter killed mid-flight must end its cache span with status "cancelled"
// in its own trace, while the surviving waiter's trace records a clean
// span — one request's death never bleeds into another's timeline.
func TestCancelledWaiterSpanStatus(t *testing.T) {
	c := New(0)
	g := &gatedFetch{gate: make(chan struct{}), raw: []byte{1, 2, 3}}
	key := Key{Field: "f", Level: 1, Plane: 2}

	leaderTracer := obs.NewTracer(0)
	leaderCtx, leaderCancel, leaderRoot := spanCtx(leaderTracer, "11111111111111111111111111111111")
	defer leaderCancel()
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := getOne(c, leaderCtx, key, g)
		leaderDone <- err
	}()
	waitFor(t, func() bool { return g.calls.Load() == 1 })

	survTracer := obs.NewTracer(0)
	survCtx, survCancel, survRoot := spanCtx(survTracer, "22222222222222222222222222222222")
	defer survCancel()
	survDone := make(chan error, 1)
	go func() {
		_, _, _, err := getOne(c, survCtx, key, g)
		survDone <- err
	}()
	waitFor(t, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		f, ok := c.flights[key]
		return ok && f.waiters == 2
	})

	// Kill the leader; the survivor keeps the flight alive.
	leaderCancel()
	select {
	case err := <-leaderDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled leader err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled leader did not return")
	}
	leaderRoot.End()

	leaderGet := findSpan(t, leaderTracer.Timeline(), "servecache.get")
	if leaderGet.Status != obs.StatusCancelled {
		t.Fatalf("cancelled waiter span status = %q, want %q", leaderGet.Status, obs.StatusCancelled)
	}
	if leaderGet.TraceID != "11111111111111111111111111111111" {
		t.Fatalf("cancelled waiter span trace id = %q", leaderGet.TraceID)
	}
	if leaderGet.Attrs["planes"] != 1 || leaderGet.Attrs["hits"] != 0 || leaderGet.Attrs["coalesced"] != 0 {
		t.Fatalf("leader span = %+v, want a run of one plane it neither found nor joined (a miss)", leaderGet.Attrs)
	}
	if leaderGet.Attrs["detached"] != true {
		t.Fatalf("leader span not marked detached: %+v", leaderGet.Attrs)
	}

	// Release the fetch; the survivor's trace stays intact and clean.
	close(g.gate)
	select {
	case err := <-survDone:
		if err != nil {
			t.Fatalf("survivor err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("survivor did not complete")
	}
	survRoot.End()
	survGet := findSpan(t, survTracer.Timeline(), "servecache.get")
	if survGet.Status != "" {
		t.Fatalf("survivor span status = %q, want ok", survGet.Status)
	}
	if survGet.TraceID != "22222222222222222222222222222222" {
		t.Fatalf("survivor span trace id = %q", survGet.TraceID)
	}
	if survGet.Attrs["coalesced"] != 1 || survGet.Attrs["hits"] != 0 {
		t.Fatalf("survivor span = %+v, want its one plane coalesced", survGet.Attrs)
	}
	// Neither trace leaked into the other.
	for _, rec := range survTracer.Timeline() {
		if rec.TraceID != "22222222222222222222222222222222" {
			t.Fatalf("foreign span in survivor trace: %+v", rec)
		}
	}
}

// TestCacheHitSpanOutcome pins the span shape of a run: level, first plane
// and plane count, how many planes were hits, and the payload byte count.
func TestCacheHitSpanOutcome(t *testing.T) {
	c := New(0)
	g := &gatedFetch{gate: make(chan struct{}), raw: []byte{9, 9}}
	close(g.gate)
	key := Key{Field: "f", Level: 0, Plane: 0}

	tr := obs.NewTracer(0)
	ctx, cancel, root := spanCtx(tr, "33333333333333333333333333333333")
	defer cancel()
	if _, _, _, err := getOne(c, ctx, key, g); err != nil {
		t.Fatal(err)
	}
	if _, _, hit, err := getOne(c, ctx, key, g); err != nil || !hit {
		t.Fatalf("second get: hit=%v err=%v", hit, err)
	}
	root.End()
	var hits, misses int
	for _, rec := range tr.Timeline() {
		if rec.Name != "servecache.get" {
			continue
		}
		if rec.Attrs["level"] != 0 || rec.Attrs["first"] != 0 || rec.Attrs["planes"] != 1 || rec.Attrs["bytes"] != int64(2) {
			t.Fatalf("span attrs = %+v, want level 0, first 0, planes 1, bytes 2", rec.Attrs)
		}
		switch rec.Attrs["hits"] {
		case 1:
			hits++
		case 0:
			misses++
		}
	}
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}
