package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"pmgard/internal/obs"
	"pmgard/internal/storage"
)

// scriptedSource replays a per-(level, plane) script: each read pops the
// next step — a verbatim payload (possibly corrupt), an error, or a
// fall-through to the real source.
type scriptedSource struct {
	src     storage.SegmentSource
	scripts map[[2]int][]scriptStep
}

type scriptStep struct {
	payload []byte
	err     error
}

func (s *scriptedSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	key := [2]int{level, plane}
	if steps := s.scripts[key]; len(steps) > 0 {
		s.scripts[key] = steps[1:]
		return steps[0].payload, steps[0].err
	}
	return s.src.Segment(ctx, level, plane)
}

// TestSessionBytesFetchedCountsFailedFetches is the regression test for the
// BytesFetched undercount: payload delivered by a read whose plane
// ultimately failed to decode (corrupt segment) must still count as
// fetched bytes — it crossed the wire even though the refinement aborted.
func TestSessionBytesFetchedCountsFailedFetches(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header

	// Script plane (0, 1): first read returns a corrupt payload (valid
	// transfer, fails decompression), the retry delivers the real bytes.
	good, err := c.Segment(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := bytes.Repeat([]byte{0xFF}, len(good))
	flaky := &scriptedSource{
		src: c,
		scripts: map[[2]int][]scriptStep{
			{0, 1}: {{payload: corrupt}},
		},
	}
	s, err := NewSession(h, flaky)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	s.Instrument(o)

	target := make([]int, len(h.Levels))
	target[0] = 2
	if _, err := s.RefineTo(context.Background(), target); err == nil {
		t.Fatal("expected the corrupt plane to abort the refinement")
	}
	afterFailure := s.BytesFetched()
	// Plane (0,0) decoded, plane (0,1)'s corrupt payload was transferred:
	// both must be counted.
	wantMin := h.Levels[0].PlaneSizes[0] + int64(len(corrupt))
	if afterFailure < wantMin {
		t.Fatalf("BytesFetched after failed fetch = %d, want >= %d (failed transfer must count)",
			afterFailure, wantMin)
	}
	if got := o.Metrics.Snapshot().Counters["core.session.bytes_wasted"]; got != int64(len(corrupt)) {
		t.Fatalf("bytes_wasted = %d, want %d", got, len(corrupt))
	}

	// The retry succeeds; the session resumes from plane (0,1) and its
	// total now includes the wasted transfer plus every decoded plane.
	if _, err := s.RefineTo(context.Background(), target); err != nil {
		t.Fatal(err)
	}
	want := sessionBytes(h, s.Fetched()) + int64(len(corrupt))
	if got := s.BytesFetched(); got != want {
		t.Fatalf("BytesFetched = %d, want %d (decoded planes + wasted transfer)", got, want)
	}
}

// TestSessionBytesFetchedCountsErrorPayloads covers the second undercount
// shape: a source that returns a partial payload alongside its error.
func TestSessionBytesFetchedCountsErrorPayloads(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	partial := []byte{1, 2, 3, 4, 5}
	flaky := &scriptedSource{
		src: c,
		scripts: map[[2]int][]scriptStep{
			{0, 0}: {{payload: partial, err: fmt.Errorf("mid-read failure: %w", storage.ErrTransient)}},
		},
	}
	s, err := NewSession(h, flaky)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, len(h.Levels))
	target[0] = 1
	if _, err := s.RefineTo(context.Background(), target); err == nil {
		t.Fatal("expected the scripted error to abort the refinement")
	}
	if got := s.BytesFetched(); got != int64(len(partial)) {
		t.Fatalf("BytesFetched = %d, want %d (partial payload delivered with the error)", got, len(partial))
	}
}

// TestSessionInstrumentPerLevelCounters checks the per-level fetch counters
// a -metrics-out snapshot reports for a refined session.
func TestSessionInstrumentPerLevelCounters(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	s, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	s.Instrument(o)
	if _, _, _, err := s.Refine(context.Background(), h.TheoryEstimator(), h.AbsTolerance(1e-3)); err != nil {
		t.Fatal(err)
	}
	snap := o.Metrics.Snapshot()
	var perLevelBytes, perLevelPlanes int64
	for l, b := range s.Fetched() {
		gotPlanes := snap.Counters[fmt.Sprintf("core.session.level%d.planes_fetched", l)]
		if gotPlanes != int64(b) {
			t.Fatalf("level %d planes_fetched = %d, want %d", l, gotPlanes, b)
		}
		perLevelBytes += snap.Counters[fmt.Sprintf("core.session.level%d.bytes_fetched", l)]
		perLevelPlanes += gotPlanes
	}
	if perLevelBytes != s.BytesFetched() {
		t.Fatalf("per-level byte counters sum to %d, BytesFetched = %d", perLevelBytes, s.BytesFetched())
	}
	if got := snap.Counters["core.session.bytes_fetched"]; got != s.BytesFetched() {
		t.Fatalf("total bytes counter = %d, BytesFetched = %d", got, s.BytesFetched())
	}
	if snap.Counters["retrieval.greedy.estimator_calls"] == 0 {
		t.Fatal("estimator iterations not counted")
	}
	// The refinement span made it into the trace.
	var names []string
	for _, st := range o.Trace.Stages() {
		names = append(names, st.Name)
	}
	found := false
	for _, n := range names {
		if n == "session.refine" {
			found = true
		}
	}
	if !found {
		t.Fatalf("trace stages %v missing session.refine", names)
	}
}
