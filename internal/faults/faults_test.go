package faults

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"pmgard/internal/leakcheck"
	"pmgard/internal/obs"
	"pmgard/internal/storage"
)

// memSource is a deterministic in-memory SegmentSource.
type memSource struct{}

func (memSource) Segment(_ context.Context, level, plane int) ([]byte, error) {
	payload := make([]byte, 32)
	for i := range payload {
		payload[i] = byte(level*31 + plane*7 + i)
	}
	return payload, nil
}

func errorSequence(t *testing.T, cfg Config, reads int) []bool {
	t.Helper()
	src := WrapSource(memSource{}, cfg, nil)
	seq := make([]bool, 0, reads)
	for i := 0; i < reads; i++ {
		_, err := src.Segment(context.Background(), i%3, i%5)
		seq = append(seq, err != nil)
	}
	return seq
}

func TestDeterministicReplay(t *testing.T) {
	cfg := Config{Seed: 7, TransientRate: 0.3}
	a := errorSequence(t, cfg, 200)
	b := errorSequence(t, cfg, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("read %d: fault sequences diverge under equal seeds", i)
		}
	}
	c := errorSequence(t, Config{Seed: 8, TransientRate: 0.3}, 200)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestTransientRateAndClassification(t *testing.T) {
	src := WrapSource(memSource{}, Config{Seed: 1, TransientRate: 0.2}, nil)
	const reads = 5000
	var failures int
	for i := 0; i < reads; i++ {
		// Distinct planes so every read is attempt 0 of its plane.
		_, err := src.Segment(context.Background(), 0, i)
		if err != nil {
			failures++
			if !errors.Is(err, storage.ErrTransient) {
				t.Fatalf("injected error does not wrap ErrTransient: %v", err)
			}
			if storage.Classify(err) != storage.FaultTransient {
				t.Fatalf("injected transient error classified permanent: %v", err)
			}
		}
	}
	rate := float64(failures) / reads
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("empirical fault rate %.3f far from configured 0.2", rate)
	}
	st := src.Stats()
	if st.Transient != int64(failures) || st.Reads != reads {
		t.Fatalf("stats %+v disagree with observed %d/%d", st, failures, reads)
	}
}

func TestRetryRedrawsTransientDecision(t *testing.T) {
	// With a 50% rate, 64 attempts on the same plane failing every time
	// (or succeeding every time) would mean the attempt number is not
	// feeding the draw.
	src := WrapSource(memSource{}, Config{Seed: 3, TransientRate: 0.5}, nil)
	var ok, fail int
	for i := 0; i < 64; i++ {
		if _, err := src.Segment(context.Background(), 0, 0); err != nil {
			fail++
		} else {
			ok++
		}
	}
	if ok == 0 || fail == 0 {
		t.Fatalf("attempt number ignored: %d ok, %d failed on one plane", ok, fail)
	}
}

func TestPermanentPlane(t *testing.T) {
	src := WrapSource(memSource{}, Config{Seed: 1, Permanent: []PlaneID{{Level: 1, Plane: 2}}}, nil)
	for i := 0; i < 3; i++ {
		_, err := src.Segment(context.Background(), 1, 2)
		if err == nil {
			t.Fatal("permanent plane read succeeded")
		}
		if !errors.Is(err, storage.ErrPermanent) {
			t.Fatalf("permanent fault does not wrap ErrPermanent: %v", err)
		}
		if storage.Classify(err) != storage.FaultPermanent {
			t.Fatalf("permanent fault classified transient: %v", err)
		}
	}
	if _, err := src.Segment(context.Background(), 1, 3); err != nil {
		t.Fatalf("neighboring plane affected: %v", err)
	}
	if st := src.Stats(); st.Permanent != 3 {
		t.Fatalf("permanent count %d, want 3", st.Permanent)
	}
}

func TestCorruptionAndTruncation(t *testing.T) {
	clean, _ := memSource{}.Segment(context.Background(), 0, 0)
	corrupting := WrapSource(memSource{}, Config{Seed: 5, CorruptRate: 1}, nil)
	got, err := corrupting.Segment(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean) || bytes.Equal(got, clean) {
		t.Fatalf("corruption did not flip a byte in place: %q vs %q", got, clean)
	}
	truncating := WrapSource(memSource{}, Config{Seed: 5, TruncateRate: 1}, nil)
	got, err = truncating.Segment(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(clean)/2 {
		t.Fatalf("truncation returned %d bytes, want %d", len(got), len(clean)/2)
	}
	// The underlying payload must be untouched (mangle copies).
	again, _ := memSource{}.Segment(context.Background(), 0, 0)
	if !bytes.Equal(again, clean) {
		t.Fatal("underlying payload mutated")
	}
	if st := corrupting.Stats(); st.Corrupted != 1 {
		t.Fatalf("corrupted count %d, want 1", st.Corrupted)
	}
	if st := truncating.Stats(); st.Truncated != 1 {
		t.Fatalf("truncated count %d, want 1", st.Truncated)
	}
}

func TestZeroConfigIsTransparent(t *testing.T) {
	src := WrapSource(memSource{}, Config{}, nil)
	for i := 0; i < 50; i++ {
		got, err := src.Segment(context.Background(), i, i)
		if err != nil {
			t.Fatalf("zero config injected error: %v", err)
		}
		want, _ := memSource{}.Segment(context.Background(), i, i)
		if !bytes.Equal(got, want) {
			t.Fatal("zero config mutated payload")
		}
	}
}

// TestWrapStore wraps a file-backed storage.Store, itself a SegmentSource.
func TestWrapStore(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/s.pmgd"
	w, err := storage.CreateStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := w.WriteSegment(storage.SegmentID{Level: 0, Plane: 0}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit([]byte("m")); err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wrapped := WrapSource(st, Config{Seed: 2, Permanent: []PlaneID{{Level: 0, Plane: 0}}}, nil)
	if _, err := wrapped.Segment(context.Background(), 0, 0); !errors.Is(err, storage.ErrPermanent) {
		t.Fatalf("store wrapper did not inject permanent fault: %v", err)
	}
	if wrapped.Stats().Permanent != 1 {
		t.Fatal("store wrapper stats not counted")
	}
}

func TestDrawIsUniformEnough(t *testing.T) {
	// Sanity-check the splitmix64 mixer: mean of many draws near 0.5.
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		sum += draw(9, i, i*3, 0, streamTransient)
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Fatalf("draw mean %.3f far from 0.5", mean)
	}
}

// recordingSource counts reads and remembers the span each read's ctx
// carried.
type recordingSource struct {
	calls atomic.Int64
	span  atomic.Pointer[obs.Span]
}

func (r *recordingSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	r.calls.Add(1)
	r.span.Store(obs.SpanFromContext(ctx))
	return []byte{1}, nil
}

// TestSourceLatencyHonorsCancellation pins the ctx contract of the injected
// tier latency: a read cancelled mid-wait returns ctx's error promptly,
// never reaches the wrapped source and leaves no goroutine behind.
func TestSourceLatencyHonorsCancellation(t *testing.T) {
	baseline := leakcheck.Baseline()
	inner := &recordingSource{}
	src := WrapSource(inner, Config{Seed: 1, Latency: 5 * time.Second}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := src.Segment(ctx, 0, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ctx's DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Fatalf("cancelled read returned after %v, want < 200ms", elapsed)
	}
	if n := inner.calls.Load(); n != 0 {
		t.Fatalf("inner source saw %d reads after cancellation, want 0", n)
	}
	leakcheck.Check(t, baseline, 2*time.Second)
}

// TestSourceForwardsContext checks that values the caller put on ctx (the
// trace parent) are visible to the wrapped source.
func TestSourceForwardsContext(t *testing.T) {
	inner := &recordingSource{}
	src := WrapSource(inner, Config{Seed: 1}, nil)
	sp := obs.New().Span("request", nil)
	defer sp.End()
	if _, err := src.Segment(obs.ContextWithSpan(context.Background(), sp), 2, 3); err != nil {
		t.Fatal(err)
	}
	if got := inner.span.Load(); got != sp {
		t.Fatalf("inner source saw span %p, want the caller's %p", got, sp)
	}
}
