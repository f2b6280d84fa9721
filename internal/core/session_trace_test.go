package core

import (
	"context"
	"math"
	"testing"

	"pmgard/internal/obs"
	"pmgard/internal/servecache"
)

// TestSessionRefineSpanTree verifies the request-scoped span tree a shared
// refine records: session stages parent under the request root carried by
// ctx, cache and plane fetch spans nest below the fetch level, built words
// are transposed under the decode span, and every span carries the
// request's trace id.
func TestSessionRefineSpanTree(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	cache := servecache.New(0, nil)

	const traceID = "abcdabcdabcdabcdabcdabcdabcdabcd"
	tr := obs.NewTracer(0)
	root := tr.StartTrace("http.refine", traceID)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = obs.ContextWithSpan(ctx, root)

	s, err := openShared(h, c, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Refine(ctx, h.TheoryBound(), h.AbsTolerance(1e-3)); err != nil {
		t.Fatal(err)
	}
	root.End()

	spans := tr.Timeline()
	byID := make(map[int64]obs.SpanRecord, len(spans))
	counts := map[string]int{}
	for _, rec := range spans {
		byID[rec.ID] = rec
		counts[rec.Name]++
		if rec.TraceID != traceID {
			t.Errorf("span %s trace id %q, want %q", rec.Name, rec.TraceID, traceID)
		}
	}
	for _, name := range []string{"session.refine", "session.fetch_level", "servecache.get", "session.fetch_plane", "session.decode", "bitplane.transpose", "session.recompose"} {
		if counts[name] == 0 {
			t.Errorf("no %q span recorded (have %v)", name, counts)
		}
	}
	// Parent links: refine under the request root, fetch levels under
	// refine, cache gets under a fetch level, plane fetches under a cache
	// get (the flight context), decode/recompose under refine.
	for _, rec := range spans {
		parent, ok := byID[rec.Parent]
		switch rec.Name {
		case "session.refine":
			if !ok || parent.Name != "http.refine" {
				t.Errorf("session.refine parent = %+v, want http.refine", parent)
			}
		case "session.fetch_level", "session.decode", "session.recompose":
			if !ok || parent.Name != "session.refine" {
				t.Errorf("%s parent = %+v, want session.refine", rec.Name, parent)
			}
		case "servecache.get":
			if !ok || parent.Name != "session.fetch_level" {
				t.Errorf("servecache.get parent = %+v, want session.fetch_level", parent)
			}
		case "session.fetch_plane":
			if !ok || parent.Name != "servecache.get" {
				t.Errorf("session.fetch_plane parent = %+v, want servecache.get", parent)
			}
		case "bitplane.transpose":
			// A fresh cache holds no word snapshot, so every level with
			// planes builds its words under the decode span.
			if !ok || parent.Name != "session.decode" {
				t.Errorf("bitplane.transpose parent = %+v, want session.decode", parent)
			}
			if _, ok := rec.Attrs["level"]; !ok || rec.Attrs["planes"] == nil {
				t.Errorf("bitplane.transpose attrs %v, want level and planes", rec.Attrs)
			}
		}
	}
	// Stage spans must fit inside the request span.
	rootRec := byID[findRoot(t, spans)]
	for _, rec := range spans {
		if rec.ID == rootRec.ID {
			continue
		}
		if rec.StartNs < rootRec.StartNs || rec.StartNs+rec.DurNs > rootRec.StartNs+rootRec.DurNs {
			t.Errorf("span %s [%d +%d] escapes root [%d +%d]", rec.Name, rec.StartNs, rec.DurNs, rootRec.StartNs, rootRec.DurNs)
		}
	}
}

func findRoot(t *testing.T, spans []obs.SpanRecord) int64 {
	t.Helper()
	for _, rec := range spans {
		if rec.Parent == 0 {
			return rec.ID
		}
	}
	t.Fatal("no root span")
	return 0
}

// TestSessionCacheHits pins the CacheHits accessor: a second session over
// the same warm cache obtains every plane as a hit.
func TestSessionCacheHits(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	cache := servecache.New(0, nil)
	tol := h.AbsTolerance(1e-3)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, err := openShared(h, c, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := first.Refine(ctx, h.TheoryBound(), tol); err != nil {
		t.Fatal(err)
	}
	if first.CacheHits() != 0 {
		t.Fatalf("cold session reports %d cache hits", first.CacheHits())
	}

	second, err := openShared(h, c, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := second.Refine(ctx, h.TheoryBound(), tol); err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, n := range second.Fetched() {
		want += int64(n)
	}
	if got := second.CacheHits(); got != want {
		t.Fatalf("warm session cache hits = %d, want %d (all fetched planes)", got, want)
	}
}

// TestFailedPlanTracedAsFailure is the regression test for failed plans
// traced as successes: a refine whose tolerance the planner rejects (NaN,
// passed straight through the library) must leave both its
// retrieval.plan span and its session.refine span marked failed.
func TestFailedPlanTracedAsFailure(t *testing.T) {
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
	if _, _, _, err := s.Refine(context.Background(), h.TheoryBound(), math.NaN()); err == nil {
		t.Fatal("Refine accepted a NaN tolerance")
	}
	status := map[string]string{}
	for _, rec := range o.Trace.Timeline() {
		status[rec.Name] = rec.Status
	}
	for _, name := range []string{"retrieval.plan", "session.refine"} {
		st, ok := status[name]
		if !ok {
			t.Fatalf("no %s span recorded (have %v)", name, status)
		}
		if st != obs.StatusError {
			t.Errorf("%s span status %q, want %q", name, st, obs.StatusError)
		}
	}
}
