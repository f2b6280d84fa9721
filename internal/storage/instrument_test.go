package storage

import (
	"context"
	"testing"
	"time"

	"pmgard/internal/obs"
)

// flipSource fails each (level, plane) once with a transient error, then
// serves a fixed payload.
type flipSource struct {
	seen    map[SegmentID]bool
	payload []byte
}

func (f *flipSource) Segment(_ context.Context, level, plane int) ([]byte, error) {
	id := SegmentID{Level: level, Plane: plane}
	if !f.seen[id] {
		f.seen[id] = true
		return nil, ErrTransient
	}
	return f.payload, nil
}

func TestRetryingSourceInstrumentMirrorsStats(t *testing.T) {
	src := &flipSource{seen: make(map[SegmentID]bool), payload: []byte("abcdefgh")}
	pol := DefaultRetryPolicy()
	pol.Sleep = func(time.Duration) {}
	r := NewRetryingSource(src, pol)

	// Count one read before instrumenting to exercise the value transfer.
	if _, err := r.Segment(context.Background(), 0, 0); err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	r.Instrument(o)
	if _, err := r.Segment(context.Background(), 0, 1); err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	if st.Reads != 2 || st.Retries != 2 || st.Recovered != 2 {
		t.Fatalf("stats view = %+v, want 2 reads/retries/recovered", st)
	}
	if st.BytesTransferred != 2*int64(len(src.payload)) {
		t.Fatalf("bytes transferred = %d, want %d", st.BytesTransferred, 2*len(src.payload))
	}
	snap := o.Metrics.Snapshot()
	if got := snap.Counters["storage.retry.reads"]; got != st.Reads {
		t.Fatalf("registry reads = %d, stats view = %d", got, st.Reads)
	}
	if got := snap.Counters["storage.retry.retries"]; got != st.Retries {
		t.Fatalf("registry retries = %d, stats view = %d", got, st.Retries)
	}
	if got := snap.Counters["storage.retry.bytes_transferred"]; got != st.BytesTransferred {
		t.Fatalf("registry bytes = %d, stats view = %d", got, st.BytesTransferred)
	}
	if snap.Gauges["storage.retry.backoff_seconds"] != st.BackoffSeconds {
		t.Fatalf("registry backoff = %g, stats view = %g",
			snap.Gauges["storage.retry.backoff_seconds"], st.BackoffSeconds)
	}
}
