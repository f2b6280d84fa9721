package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// scriptedSource fails reads according to a per-call script, then serves a
// deterministic payload.
type scriptedSource struct {
	mu    sync.Mutex
	calls map[SegmentID]int
	// failures[id] is the number of leading attempts that fail transiently.
	failures map[SegmentID]int
	// permanent planes always fail with ErrPermanent.
	permanent map[SegmentID]bool
	// delay stalls every read, for the timeout test.
	delay time.Duration
}

func (s *scriptedSource) Segment(_ context.Context, level, plane int) ([]byte, error) {
	id := SegmentID{Level: level, Plane: plane}
	s.mu.Lock()
	n := s.calls[id]
	s.calls[id] = n + 1
	s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	if s.permanent[id] {
		return nil, fmt.Errorf("scripted: %+v lost: %w", id, ErrPermanent)
	}
	if n < s.failures[id] {
		return nil, fmt.Errorf("scripted: %+v attempt %d: %w", id, n, ErrTransient)
	}
	return []byte(fmt.Sprintf("payload-%d-%d", level, plane)), nil
}

func (s *scriptedSource) callCount(id SegmentID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls[id]
}

func newScripted() *scriptedSource {
	return &scriptedSource{
		calls:     make(map[SegmentID]int),
		failures:  make(map[SegmentID]int),
		permanent: make(map[SegmentID]bool),
	}
}

// fastPolicy retries without real sleeping.
func fastPolicy() RetryPolicy {
	p := DefaultRetryPolicy()
	p.Sleep = func(time.Duration) {}
	return p
}

func TestRetryingSourceRecoversTransient(t *testing.T) {
	src := newScripted()
	src.failures[SegmentID{Level: 0, Plane: 0}] = 3
	r := NewRetryingSource(src, fastPolicy(), nil)
	got, err := r.Segment(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("payload-0-0")) {
		t.Fatalf("wrong payload %q", got)
	}
	st := r.Stats()
	if st.Retries != 3 || st.Recovered != 1 || st.Exhausted != 0 || st.Quarantined != 0 {
		t.Fatalf("stats %+v, want 3 retries / 1 recovered", st)
	}
}

func TestRetryingSourceExhaustsRetries(t *testing.T) {
	src := newScripted()
	src.failures[SegmentID{Level: 1, Plane: 2}] = 1 << 30
	pol := fastPolicy()
	pol.MaxAttempts = 4
	r := NewRetryingSource(src, pol, nil)
	_, err := r.Segment(context.Background(), 1, 2)
	if err == nil {
		t.Fatal("exhausted read succeeded")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhaustion error lost the transient cause: %v", err)
	}
	if got := src.callCount(SegmentID{Level: 1, Plane: 2}); got != 4 {
		t.Fatalf("underlying called %d times, want 4", got)
	}
	if st := r.Stats(); st.Exhausted != 1 {
		t.Fatalf("stats %+v, want 1 exhausted", st)
	}
	// Exhaustion is not quarantine: the next read tries again.
	src.failures[SegmentID{Level: 1, Plane: 2}] = 0
	src.mu.Lock()
	src.calls[SegmentID{Level: 1, Plane: 2}] = 0
	src.mu.Unlock()
	if _, err := r.Segment(context.Background(), 1, 2); err != nil {
		t.Fatalf("recovered source still failing: %v", err)
	}
}

func TestRetryingSourceQuarantinesPermanent(t *testing.T) {
	src := newScripted()
	src.permanent[SegmentID{Level: 2, Plane: 1}] = true
	r := NewRetryingSource(src, fastPolicy(), nil)
	_, err := r.Segment(context.Background(), 2, 1)
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("want ErrPermanent, got %v", err)
	}
	if got := src.callCount(SegmentID{Level: 2, Plane: 1}); got != 1 {
		t.Fatalf("permanent failure retried %d times", got)
	}
	// Second read fails fast without touching the source.
	_, err = r.Segment(context.Background(), 2, 1)
	if !errors.Is(err, ErrPermanent) {
		t.Fatalf("quarantined read: %v", err)
	}
	if got := src.callCount(SegmentID{Level: 2, Plane: 1}); got != 1 {
		t.Fatalf("quarantined plane re-read the source (%d calls)", got)
	}
	q := r.Quarantined()
	if len(q) != 1 || q[0] != (SegmentID{Level: 2, Plane: 1}) {
		t.Fatalf("quarantine list %v", q)
	}
	if st := r.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined", st)
	}
}

func TestRetryingSourceTimeout(t *testing.T) {
	src := newScripted()
	src.delay = 200 * time.Millisecond
	pol := fastPolicy()
	pol.MaxAttempts = 2
	pol.Timeout = 5 * time.Millisecond
	r := NewRetryingSource(src, pol, nil)
	start := time.Now()
	_, err := r.Segment(context.Background(), 0, 0)
	if err == nil {
		t.Fatal("stalled read succeeded")
	}
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("timeout not classified transient: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("timeout did not cut the stalled read short (%v)", elapsed)
	}
}

func TestRetryingSourceContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := newScripted()
	r := NewRetryingSource(src, fastPolicy(), nil)
	_, err := r.Segment(ctx, 0, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRetryingSourceBackoffIsBoundedAndJittered(t *testing.T) {
	var delays []time.Duration
	src := newScripted()
	src.failures[SegmentID{Level: 0, Plane: 0}] = 7
	pol := DefaultRetryPolicy()
	pol.BaseDelay = time.Millisecond
	pol.MaxDelay = 8 * time.Millisecond
	pol.Sleep = func(d time.Duration) { delays = append(delays, d) }
	r := NewRetryingSource(src, pol, nil)
	if _, err := r.Segment(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	if len(delays) != 7 {
		t.Fatalf("slept %d times, want 7", len(delays))
	}
	for i, d := range delays {
		if d <= 0 || d > pol.MaxDelay {
			t.Fatalf("delay %d = %v outside (0, %v]", i, d, pol.MaxDelay)
		}
	}
	// Exponential up to the cap: the later delays must exceed the first.
	if delays[3] <= delays[0] {
		t.Fatalf("backoff not growing: %v", delays)
	}
}

// TestRetryingSourceJitterDeterministicUnderConcurrency pins the fix for
// the shared-jitter-stream bug: backoff delays are a pure function of
// (seed, level, plane, attempt), so the multiset of delays a workload
// produces is identical whether its reads run sequentially or race each
// other. Before the fix, concurrent sessions interleaved draws from one
// shared rand.Rand, perturbing each other's schedules and breaking
// seed-determinism. Run under -race, this also hammers concurrent retries
// through one RetryingSource.
func TestRetryingSourceJitterDeterministicUnderConcurrency(t *testing.T) {
	const planes = 10
	run := func(concurrent bool) []time.Duration {
		var mu sync.Mutex
		var delays []time.Duration
		src := newScripted()
		for k := 0; k < planes; k++ {
			src.failures[SegmentID{Level: 0, Plane: k}] = 2
		}
		pol := DefaultRetryPolicy()
		pol.BaseDelay = time.Millisecond
		pol.MaxDelay = 16 * time.Millisecond
		pol.Sleep = func(d time.Duration) {
			mu.Lock()
			delays = append(delays, d)
			mu.Unlock()
		}
		r := NewRetryingSource(src, pol, nil)
		if concurrent {
			var wg sync.WaitGroup
			for k := 0; k < planes; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					if _, err := r.Segment(context.Background(), 0, k); err != nil {
						t.Error(err)
					}
				}(k)
			}
			wg.Wait()
		} else {
			for k := 0; k < planes; k++ {
				if _, err := r.Segment(context.Background(), 0, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		return delays
	}
	seq := run(false)
	conc := run(true)
	if len(seq) != 2*planes {
		t.Fatalf("sequential run slept %d times, want %d", len(seq), 2*planes)
	}
	if !reflect.DeepEqual(seq, conc) {
		t.Fatalf("delay multiset changed under concurrency:\nsequential %v\nconcurrent %v", seq, conc)
	}
	// Distinct planes must not share a schedule: a degenerate constant
	// stream would also pass the multiset check.
	if seq[0] == seq[planes-1] {
		t.Fatalf("first-attempt delays all identical: %v", seq)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FaultClass
	}{
		{fmt.Errorf("wrapped: %w", ErrTransient), FaultTransient},
		{fmt.Errorf("wrapped: %w", ErrPermanent), FaultPermanent},
		{fmt.Errorf("wrapped: %w", ErrCorrupt), FaultPermanent},
		{fmt.Errorf("open: %w", os.ErrNotExist), FaultPermanent},
		{errors.New("mystery network burp"), FaultTransient},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Fatalf("Classify(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
