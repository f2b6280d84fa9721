package resilience

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"pmgard/internal/obs"
	"pmgard/internal/storage"
)

// fakeClock is a hand-stepped clock for deterministic cooldown tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testBreaker(clk *fakeClock, thr int, cooldown time.Duration) *Breaker {
	return NewBreaker(BreakerConfig{
		FailureThreshold: thr,
		Cooldown:         cooldown,
		Now:              clk.now,
	})
}

var errTier = errors.New("tier exploded")

// record drives one allowed read outcome through the breaker, failing the
// test if Allow refuses.
func record(t *testing.T, b *Breaker, err error) {
	t.Helper()
	if aerr := b.Allow(); aerr != nil {
		t.Fatalf("Allow refused in state %v: %v", b.State(), aerr)
	}
	b.Record(err)
}

func TestBreakerOpensOnConsecutiveFailures(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 3, time.Second)
	record(t, b, errTier)
	record(t, b, errTier)
	// A success resets the consecutive count: an isolated lost plane among
	// healthy reads never trips the breaker.
	record(t, b, nil)
	record(t, b, errTier)
	record(t, b, errTier)
	if b.State() != StateClosed {
		t.Fatalf("state after 2 consecutive failures = %v, want closed", b.State())
	}
	record(t, b, errTier)
	if b.State() != StateOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow while open = %v, want ErrOpen", err)
	}
	s := b.Stats()
	if s.Opened != 1 || s.FastFails != 1 {
		t.Fatalf("stats = %+v, want 1 opened, 1 fast fail", s)
	}
}

func TestBreakerHalfOpensAfterCooldownAndCloses(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 2, time.Second)
	record(t, b, errTier)
	record(t, b, errTier)
	if b.State() != StateOpen {
		t.Fatalf("state = %v, want open", b.State())
	}
	// Before the cooldown: still failing fast.
	clk.advance(999 * time.Millisecond)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow 1ms before cooldown = %v, want ErrOpen", err)
	}
	// At the cooldown: one probe is admitted, concurrent reads still fail
	// fast.
	clk.advance(time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe Allow after cooldown = %v, want nil", err)
	}
	if b.State() != StateHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("second concurrent probe = %v, want ErrOpen", err)
	}
	b.Record(nil)
	if b.State() != StateClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	s := b.Stats()
	if s.HalfOpens != 1 || s.Closed != 1 {
		t.Fatalf("stats = %+v, want 1 half-open, 1 closed", s)
	}
	// Closed again: failures must start from zero.
	record(t, b, errTier)
	if b.State() != StateClosed {
		t.Fatalf("one failure after close reopened the breaker")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1, time.Second)
	record(t, b, errTier)
	clk.advance(time.Second)
	record(t, b, errTier) // failed probe
	if b.State() != StateOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	// The failed probe restarts the cooldown from its failure time.
	clk.advance(999 * time.Millisecond)
	if err := b.Allow(); !errors.Is(err, ErrOpen) {
		t.Fatalf("Allow before restarted cooldown = %v, want ErrOpen", err)
	}
	clk.advance(time.Millisecond)
	if err := b.Allow(); err != nil {
		t.Fatalf("probe after restarted cooldown = %v, want nil", err)
	}
	b.Record(nil)
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1, time.Second)
	for i := 0; i < 10; i++ {
		record(t, b, fmt.Errorf("read: %w", context.DeadlineExceeded))
		record(t, b, fmt.Errorf("read: %w", context.Canceled))
	}
	if b.State() != StateClosed {
		t.Fatalf("client timeouts tripped the breaker: state %v", b.State())
	}
	// In half-open, a cancelled probe returns the slot without a verdict.
	record(t, b, errTier)
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(context.Canceled)
	if b.State() != StateHalfOpen {
		t.Fatalf("cancelled probe moved state to %v, want half-open", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("probe slot not returned after cancelled probe: %v", err)
	}
	b.Record(nil)
	if b.State() != StateClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

func TestBreakerStateGauge(t *testing.T) {
	clk := newFakeClock()
	b := testBreaker(clk, 1, time.Second)
	o := obs.New()
	b.Instrument(o, "Jx")
	gauge := func() float64 {
		return o.Metrics.Snapshot().Gauges["storage.breaker_state.Jx"]
	}
	if gauge() != float64(StateClosed) {
		t.Fatalf("initial gauge = %v, want closed (0)", gauge())
	}
	record(t, b, errTier)
	if gauge() != float64(StateOpen) {
		t.Fatalf("gauge after trip = %v, want open (1)", gauge())
	}
	clk.advance(time.Second)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	if gauge() != float64(StateHalfOpen) {
		t.Fatalf("gauge after cooldown = %v, want half-open (2)", gauge())
	}
	b.Record(nil)
	if gauge() != float64(StateClosed) {
		t.Fatalf("gauge after close = %v, want closed (0)", gauge())
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["resilience.breaker.Jx.opened"] != 1 ||
		snap.Counters["resilience.breaker.Jx.closed"] != 1 {
		t.Fatalf("transition counters missing: %v", snap.Counters)
	}
}

// flakySegments is a storage.SegmentSource whose failure mode is toggled by tests.
type flakySegments struct{ fail bool }

func (f *flakySegments) Segment(_ context.Context, level, plane int) ([]byte, error) {
	if f.fail {
		return nil, errTier
	}
	return []byte{byte(level), byte(plane)}, nil
}

func TestBreakerSourceGatesReads(t *testing.T) {
	clk := newFakeClock()
	br := testBreaker(clk, 2, time.Second)
	src := &flakySegments{fail: true}
	bs := BreakerSource{Src: src, Breaker: br}

	for i := 0; i < 2; i++ {
		if _, err := bs.Segment(context.Background(), 0, i); !errors.Is(err, errTier) {
			t.Fatalf("read %d err = %v, want tier error", i, err)
		}
	}
	// Open: fails fast without touching the source.
	if _, err := bs.Segment(context.Background(), 0, 9); !errors.Is(err, ErrOpen) {
		t.Fatalf("read while open = %v, want ErrOpen", err)
	}
	// Recovery: after the cooldown the probe read goes through and closes.
	src.fail = false
	clk.advance(time.Second)
	payload, err := bs.Segment(context.Background(), 1, 2)
	if err != nil {
		t.Fatalf("probe read: %v", err)
	}
	if len(payload) != 2 || payload[0] != 1 || payload[1] != 2 {
		t.Fatalf("probe payload = %v", payload)
	}
	if br.State() != StateClosed {
		t.Fatalf("state after probe success = %v, want closed", br.State())
	}
	// A pre-cancelled context never reaches the source and never counts
	// against the breaker.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := bs.Segment(ctx, 0, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read = %v, want context.Canceled", err)
	}
	if br.State() != StateClosed {
		t.Fatalf("cancelled read changed breaker state to %v", br.State())
	}
}

func TestRecordIgnoresPermanentDataFaults(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2})
	// A lost plane answered authoritatively by an up store must never open
	// the breaker, no matter how many refines trip over it.
	for i := 0; i < 10; i++ {
		b.Record(fmt.Errorf("plane lost: %w", storage.ErrPermanent))
	}
	if got := b.State(); got != StateClosed {
		t.Fatalf("state after permanent data faults = %v, want closed", got)
	}
	// Transient tier faults still count.
	b.Record(fmt.Errorf("tier down: %w", storage.ErrTransient))
	b.Record(fmt.Errorf("tier down: %w", storage.ErrTransient))
	if got := b.State(); got != StateOpen {
		t.Fatalf("state after transient faults = %v, want open", got)
	}
}

// countingSegments fails every read with a transient fault and counts them.
type countingSegments struct{ reads int }

func (c *countingSegments) Segment(context.Context, int, int) ([]byte, error) {
	c.reads++
	return nil, fmt.Errorf("tier down: %w", storage.ErrTransient)
}

// TestGuardLayersBreakerOverRetries pins the one assembly both the local
// and the shard wiring use: a request that burns its whole retry budget
// costs one breaker failure, an open breaker skips the budget, and the
// disabled conventions (no attempts, nil breaker) add no layer at all.
func TestGuardLayersBreakerOverRetries(t *testing.T) {
	src := &countingSegments{}
	if got := Guard(src, storage.RetryPolicy{}, NewBreaker(BreakerConfig{}), obs.New()); got != storage.SegmentSource(src) {
		t.Fatalf("Guard with no retries and no breaker wrapped the source in %T", got)
	}
	if d := NewBreaker(BreakerConfig{Cooldown: time.Second}).RetryAfter(); d != 0 {
		t.Fatalf("disabled breaker RetryAfter = %v, want 0", d)
	}
	br := NewBreaker(BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute})
	pol := storage.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	guarded := Guard(src, pol, br, obs.New())
	if _, err := guarded.Segment(context.Background(), 0, 0); storage.Classify(err) != storage.FaultTransient {
		t.Fatalf("exhausted read = %v, want a transient fault", err)
	}
	if src.reads != 3 || br.State() != StateOpen {
		t.Fatalf("one request: %d source reads, breaker %v; want 3 reads and one failure opening it", src.reads, br.State())
	}
	if _, err := guarded.Segment(context.Background(), 0, 0); !errors.Is(err, ErrOpen) || src.reads != 3 {
		t.Fatalf("read while open = %v after %d source reads, want ErrOpen and still 3", err, src.reads)
	}
}

// runSegments is a storage.RunSource whose runs fail in a scripted way and
// which records what it was asked for.
type runSegments struct {
	fail error
	runs [][]int
}

func (r *runSegments) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	return r.Run(ctx, level, []int{plane})
}

func (r *runSegments) Run(_ context.Context, level int, planes []int) ([]byte, error) {
	r.runs = append(r.runs, append([]int(nil), planes...))
	if r.fail != nil {
		return nil, r.fail
	}
	return make([]byte, len(planes)), nil
}

// TestGuardGuardsARunAsOneRead pins the unit of the stack over a
// storage.RunSource: a run is one read — one retry budget whatever its
// length, one breaker failure when the budget burns — and a permanent error
// quarantines its first plane only, the plane the error speaks for.
func TestGuardGuardsARunAsOneRead(t *testing.T) {
	src := &runSegments{fail: fmt.Errorf("node down: %w", storage.ErrTransient)}
	br := NewBreaker(BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute})
	pol := storage.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	guarded, ok := Guard(src, pol, br, obs.New()).(storage.RunSource)
	if !ok {
		t.Fatal("Guard over a RunSource does not forward Run")
	}
	ctx := context.Background()
	run := []int{4, 5, 6, 7, 8, 9, 10, 11}
	if _, err := guarded.Run(ctx, 1, run); storage.Classify(err) != storage.FaultTransient {
		t.Fatalf("exhausted run = %v, want a transient fault", err)
	}
	if len(src.runs) != 3 || br.State() != StateClosed {
		t.Fatalf("a run of %d planes: %d source reads, breaker %v; want one budget of 3 and one failure of the 2 that open it",
			len(run), len(src.runs), br.State())
	}
	if _, err := guarded.Run(ctx, 1, run[1:]); err == nil || br.State() != StateOpen {
		t.Fatalf("second exhausted run = %v, breaker %v; want it to open the breaker", err, br.State())
	}
	if _, err := guarded.Run(ctx, 1, run); !errors.Is(err, ErrOpen) || len(src.runs) != 6 {
		t.Fatalf("run while open = %v after %d source reads, want ErrOpen and still 6", err, len(src.runs))
	}

	// A permanent error quarantines the run's first plane: a later run
	// starting there fails fast, one starting past it is read.
	lost := &runSegments{fail: fmt.Errorf("plane gone: %w", storage.ErrPermanent)}
	guarded = Guard(lost, pol, nil, obs.New()).(storage.RunSource)
	if _, err := guarded.Run(ctx, 0, []int{2, 3, 4}); storage.Classify(err) != storage.FaultPermanent {
		t.Fatalf("lost run = %v, want a permanent fault", err)
	}
	lost.fail = nil
	if _, err := guarded.Run(ctx, 0, []int{2, 3}); storage.Classify(err) != storage.FaultPermanent {
		t.Fatalf("run starting at the quarantined plane = %v, want it to fail fast", err)
	}
	if _, err := guarded.Segment(ctx, 0, 2); storage.Classify(err) != storage.FaultPermanent {
		t.Fatalf("the quarantined plane read as a segment = %v, want it to fail fast", err)
	}
	if payload, err := guarded.Run(ctx, 0, []int{3, 4}); err != nil || len(payload) != 2 {
		t.Fatalf("run past the quarantined plane = %d bytes, %v; want it read", len(payload), err)
	}
	if want := [][]int{{2, 3, 4}, {3, 4}}; !reflect.DeepEqual(lost.runs, want) {
		t.Fatalf("source was asked for %v, want %v", lost.runs, want)
	}

	// A source that reads segments only cannot be asked for a run.
	plain := Guard(&flakySegments{}, pol, NewBreaker(BreakerConfig{FailureThreshold: 1}), obs.New()).(storage.RunSource)
	if _, err := plain.Run(ctx, 0, []int{0, 1}); storage.Classify(err) != storage.FaultPermanent {
		t.Fatalf("run over a segment-only source = %v, want a permanent fault", err)
	}
}
