package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// countingSource counts raw store reads, the quantity the singleflight
// dedup contract bounds.
type countingSource struct {
	src   storage.SegmentSource
	reads atomic.Int64
}

func (c *countingSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	c.reads.Add(1)
	return c.src.Segment(ctx, level, plane)
}

// sharedFixture compresses the test field once for the shared-cache tests.
func sharedFixture(t *testing.T) (*Header, *Compressed) {
	t.Helper()
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	return &c.Header, c
}

// TestSharedSessionByteIdentity is the correctness core of the cache: for
// 1, 2 and 8 concurrent sessions sharing one cache, every reconstruction
// is byte-identical to an uncached session's.
func TestSharedSessionByteIdentity(t *testing.T) {
	h, c := sharedFixture(t)
	est := h.TheoryEstimator()
	tol := h.AbsTolerance(1e-4)

	plain, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := plain.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatal(err)
	}

	for _, sessions := range []int{1, 2, 8} {
		cache := servecache.New(0)
		recs := make([]*grid.Tensor, sessions)
		bytesFetched := make([]int64, sessions)
		errs := make([]error, sessions)
		var wg sync.WaitGroup
		for i := 0; i < sessions; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := openShared(h, c, cache)
				if err != nil {
					errs[i] = err
					return
				}
				recs[i], _, _, errs[i] = s.Refine(context.Background(), est, tol)
				bytesFetched[i] = s.BytesFetched()
			}(i)
		}
		wg.Wait()
		for i := 0; i < sessions; i++ {
			if errs[i] != nil {
				t.Fatalf("sessions=%d: session %d: %v", sessions, i, errs[i])
			}
			if grid.MaxAbsDiff(recs[i], want) != 0 {
				t.Fatalf("sessions=%d: session %d reconstruction differs from uncached", sessions, i)
			}
			if bytesFetched[i] != plain.BytesFetched() {
				t.Fatalf("sessions=%d: session %d BytesFetched = %d, uncached session = %d (cache must not change per-session accounting)",
					sessions, i, bytesFetched[i], plain.BytesFetched())
			}
		}
	}
}

// TestSharedSessionDeduplicatesStoreReads is the acceptance assertion: two
// sessions refining the same field to the same tolerance through the shared
// cache cost at most one single-session plane count in store reads.
func TestSharedSessionDeduplicatesStoreReads(t *testing.T) {
	h, c := sharedFixture(t)
	est := h.TheoryEstimator()
	tol := h.AbsTolerance(1e-4)

	// Plane count one uncached session fetches at this tolerance.
	solo, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := solo.Refine(context.Background(), est, tol); err != nil {
		t.Fatal(err)
	}
	var soloPlanes int64
	for _, b := range solo.Fetched() {
		soloPlanes += int64(b)
	}

	cache := servecache.New(0)
	counted := &countingSource{src: c}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := openShared(h, counted, cache)
			if err != nil {
				errs[i] = err
				return
			}
			_, _, _, errs[i] = s.Refine(context.Background(), est, tol)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if got := counted.reads.Load(); got > soloPlanes {
		t.Fatalf("2 shared sessions issued %d store reads, want <= %d (single-session plane count)", got, soloPlanes)
	}
	st := cache.Stats()
	if st.Hits+st.Coalesced == 0 {
		t.Fatalf("cache recorded no sharing (stats %+v) across two identical refinements", st)
	}
	if st.Misses != soloPlanes {
		t.Fatalf("cache misses = %d, want %d (one per plane)", st.Misses, soloPlanes)
	}
}

// TestSharedSessionEvictionRefetch forces eviction churn with a budget that
// holds only a fraction of the working set: reconstructions must still be
// byte-identical, at the cost of extra (correct) refetches.
func TestSharedSessionEvictionRefetch(t *testing.T) {
	h, c := sharedFixture(t)
	est := h.TheoryEstimator()
	tol := h.AbsTolerance(1e-4)

	plain, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := plain.Refine(context.Background(), est, tol)
	if err != nil {
		t.Fatal(err)
	}

	// Budget of three raw planes: every level's RawPlaneSize is the same
	// order, so the cache thrashes and refetches constantly.
	budget := int64(3 * h.Levels[0].RawPlaneSize)
	cache := servecache.New(budget)
	for i := 0; i < 2; i++ {
		s, err := openShared(h, c, cache)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, _, err := s.Refine(context.Background(), est, tol)
		if err != nil {
			t.Fatal(err)
		}
		if grid.MaxAbsDiff(rec, want) != 0 {
			t.Fatalf("pass %d: reconstruction through a thrashing cache differs", i)
		}
		if s.BytesFetched() != plain.BytesFetched() {
			t.Fatalf("pass %d: BytesFetched = %d, want %d", i, s.BytesFetched(), plain.BytesFetched())
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("budget %d produced no evictions (stats %+v); test is not exercising the LRU", budget, st)
	}
	if cache.Bytes() > budget {
		t.Fatalf("cache holds %d bytes over budget %d", cache.Bytes(), budget)
	}
}

// TestSessionConcurrentRefineTo drives one session from many goroutines —
// the serving-layer hazard — and checks the state converges exactly as a
// sequential refinement would. Run under -race in CI.
func TestSessionConcurrentRefineTo(t *testing.T) {
	h, c := sharedFixture(t)
	s, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	targets := make([][]int, 8)
	for i := range targets {
		tg := make([]int, len(h.Levels))
		for l := range tg {
			tg[l] = (i + l) % (h.Planes + 1)
		}
		targets[i] = tg
	}
	var wg sync.WaitGroup
	errs := make([]error, len(targets))
	for i, tg := range targets {
		wg.Add(1)
		go func(i int, tg []int) {
			defer wg.Done()
			_, errs[i] = s.RefineTo(context.Background(), tg)
		}(i, tg)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	// The session holds the per-level max of every target (it never
	// un-reads), and its byte accounting matches the manifest exactly.
	wantFetched := make([]int, len(h.Levels))
	for _, tg := range targets {
		for l, b := range tg {
			if b > wantFetched[l] {
				wantFetched[l] = b
			}
		}
	}
	got := s.Fetched()
	for l := range wantFetched {
		if got[l] != wantFetched[l] {
			t.Fatalf("level %d fetched %d planes, want %d", l, got[l], wantFetched[l])
		}
	}
	if want := sessionBytes(h, got); s.BytesFetched() != want {
		t.Fatalf("BytesFetched = %d, want %d", s.BytesFetched(), want)
	}
}

// TestSessionRejectsPayloadSizeMismatch is the accounting regression test:
// a store returning a payload whose length disagrees with the manifest must
// error (classified permanent — it is corruption), and BytesFetched must
// count the bytes actually delivered, not the manifest's claim.
func TestSessionRejectsPayloadSizeMismatch(t *testing.T) {
	h, c := sharedFixture(t)
	good, err := c.Segment(context.Background(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	oversized := append(append([]byte(nil), good...), 0xAA, 0xBB, 0xCC)
	lying := &scriptedSource{
		src: c,
		scripts: map[[2]int][]scriptStep{
			{0, 0}: {{payload: oversized}},
		},
	}
	s, err := NewSession(h, lying)
	if err != nil {
		t.Fatal(err)
	}
	target := make([]int, len(h.Levels))
	target[0] = 1
	_, err = s.RefineTo(context.Background(), target)
	if err == nil {
		t.Fatal("session accepted a payload longer than the manifest's plane size")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("size mismatch error = %v, want it to wrap storage.ErrCorrupt", err)
	}
	if storage.Classify(err) != storage.FaultPermanent {
		t.Fatalf("size mismatch classifies as transient; retrying a lying store is useless")
	}
	if got := s.BytesFetched(); got != int64(len(oversized)) {
		t.Fatalf("BytesFetched = %d, want %d (the bytes actually delivered)", got, len(oversized))
	}
}

// TestSharedSessionCountersMatchUncached pins the metric names the serving
// layer exports and their agreement between cached and uncached paths.
func TestSharedSessionCountersMatchUncached(t *testing.T) {
	h, c := sharedFixture(t)
	est := h.TheoryEstimator()
	tol := h.AbsTolerance(1e-3)

	oPlain := obs.New()
	plain, err := NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	plain.Instrument(oPlain)
	if _, _, _, err := plain.Refine(context.Background(), est, tol); err != nil {
		t.Fatal(err)
	}

	oShared := obs.New()
	cache := servecache.New(0)
	cache.Instrument(oShared)
	// Warm pass then a second session: the second is served from cache.
	for i := 0; i < 2; i++ {
		s, err := openShared(h, c, cache)
		if err != nil {
			t.Fatal(err)
		}
		s.Instrument(oShared)
		if _, _, _, err := s.Refine(context.Background(), est, tol); err != nil {
			t.Fatal(err)
		}
	}
	plainSnap := oPlain.Metrics.Snapshot()
	sharedSnap := oShared.Metrics.Snapshot()
	// Two sessions fetched twice the planes and bytes of one...
	if got, want := sharedSnap.Counters["core.session.bytes_fetched"], 2*plainSnap.Counters["core.session.bytes_fetched"]; got != want {
		t.Fatalf("shared bytes_fetched = %d, want %d", got, want)
	}
	if got, want := sharedSnap.Counters["core.session.planes_fetched"], 2*plainSnap.Counters["core.session.planes_fetched"]; got != want {
		t.Fatalf("shared planes_fetched = %d, want %d", got, want)
	}
	// ...but the cache served the second session's planes without misses.
	if got, want := sharedSnap.Counters["servecache.misses"], plainSnap.Counters["core.session.planes_fetched"]; got != want {
		t.Fatalf("servecache.misses = %d, want %d", got, want)
	}
	if got, want := sharedSnap.Counters["servecache.hits"], plainSnap.Counters["core.session.planes_fetched"]; got != want {
		t.Fatalf("servecache.hits = %d, want %d", got, want)
	}
	if sharedSnap.Gauges["servecache.bytes"] <= 0 {
		t.Fatal("servecache.bytes gauge not exported")
	}
}

// TestCacheHitCancellableCtxAllocFree guards the only cache path serve's
// /refine takes: a run of hits through Cache.Get under a cancellable,
// untraced ctx allocates its verdicts — one slice, whatever the run's
// length — and nothing per plane.
func TestCacheHitCancellableCtxAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	h, c := sharedFixture(t)
	store, err := NewPlaneStore(h, c)
	if err != nil {
		t.Fatal(err)
	}
	cache := servecache.New(0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, planes := range [][]int{{2}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		run := h.PlaneRun(1, planes)
		for _, p := range cache.Get(ctx, run, store) {
			if p.Err != nil {
				t.Fatal(p.Err)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			for _, p := range cache.Get(ctx, run, store) {
				if p.Err != nil || !p.Hit {
					t.Fatalf("hit=%v err=%v, want a cached hit", p.Hit, p.Err)
				}
			}
		})
		if avg != 1 {
			t.Fatalf("a run of %d cache hits under a cancellable ctx allocates %.2f allocs/op, want 1 (the verdicts)", len(planes), avg)
		}
	}
}

// openShared opens a shared session over a local segment source: the
// serving tier's shape, a validating PlaneStore behind the cache.
func openShared(h *Header, src storage.SegmentSource, cache *servecache.Cache) (*Session, error) {
	store, err := NewPlaneStore(h, src)
	if err != nil {
		return nil, err
	}
	return NewSharedSession(h, store, cache)
}
