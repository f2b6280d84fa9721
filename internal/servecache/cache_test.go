package servecache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"pmgard/internal/obs"
)

// sourceFunc adapts a closure fetching one plane to Source: every plane of a
// run is one call.
type sourceFunc func(ctx context.Context) ([]byte, int64, error)

func (f sourceFunc) FetchPlanes(ctx context.Context, run Run) []Plane {
	out := make([]Plane, len(run.Planes))
	for i := range out {
		out[i].Raw, out[i].Payload, out[i].Err = f(ctx)
	}
	return out
}

// one is the run of the single plane key names.
func one(key Key) Run {
	return Run{Codec: key.Codec, Field: key.Field, Level: key.Level, Planes: []int{key.Plane}}
}

// getOne is Cache.Get for the run of one plane, its verdict unpacked.
func getOne(c *Cache, ctx context.Context, key Key, src Source) ([]byte, int64, bool, error) {
	p := c.Get(ctx, one(key), src, nil)[0]
	return p.Raw, p.Payload, p.Hit, p.Err
}

// getSync is getOne under a context that cannot be cancelled, filling
// misses from a context-free closure.
func getSync(c *Cache, key Key, fetch func() ([]byte, int64, error)) ([]byte, int64, bool, error) {
	return getOne(c, context.Background(), key, sourceFunc(func(context.Context) ([]byte, int64, error) { return fetch() }))
}

// fetchFor builds a deterministic fetch closure that records how many times
// it ran.
func fetchFor(key Key, calls *atomic.Int64, size int) func() ([]byte, int64, error) {
	return func() ([]byte, int64, error) {
		calls.Add(1)
		raw := bytes.Repeat([]byte{byte(key.Level*31 + key.Plane)}, size)
		return raw, int64(size / 2), nil
	}
}

func TestGetOrFetchHitMissAccounting(t *testing.T) {
	c := New(0, nil)
	key := Key{Field: "Jx@0", Level: 1, Plane: 2}
	var calls atomic.Int64
	raw1, payload1, hit, err := getSync(c, key, fetchFor(key, &calls, 64))
	if err != nil || hit {
		t.Fatalf("first read: hit=%v err=%v, want miss", hit, err)
	}
	raw2, payload2, hit, err := getSync(c, key, fetchFor(key, &calls, 64))
	if err != nil || !hit {
		t.Fatalf("second read: hit=%v err=%v, want hit", hit, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("fetch ran %d times, want 1", calls.Load())
	}
	if !bytes.Equal(raw1, raw2) || payload1 != payload2 {
		t.Fatal("hit returned different bytes or payload size than the miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 64 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss, 1 entry, 64 bytes", st)
	}
}

// TestSingleflightCoalesces is the dedup contract under -race: M goroutines
// asking for the same cold plane trigger exactly one fetch, and everyone
// gets its bytes.
func TestSingleflightCoalesces(t *testing.T) {
	c := New(0, nil)
	key := Key{Field: "Jx@0", Level: 0, Plane: 0}
	var calls atomic.Int64
	release := make(chan struct{})
	fetch := func() ([]byte, int64, error) {
		calls.Add(1)
		<-release // hold the flight open until every goroutine has queued
		return []byte{1, 2, 3, 4}, 4, nil
	}
	const m = 16
	var started, done sync.WaitGroup
	started.Add(m)
	done.Add(m)
	errs := make([]error, m)
	for i := 0; i < m; i++ {
		go func(i int) {
			defer done.Done()
			started.Done()
			raw, payload, _, err := getSync(c, key, fetch)
			if err == nil && (!bytes.Equal(raw, []byte{1, 2, 3, 4}) || payload != 4) {
				err = fmt.Errorf("wrong result raw=%v payload=%d", raw, payload)
			}
			errs[i] = err
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("fetch ran %d times for %d concurrent readers, want 1", calls.Load(), m)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	// Late arrivals (after the insert) count as hits; the rest coalesced
	// onto the flight. Either way nobody fetched twice.
	if st.Hits+st.Coalesced != m-1 {
		t.Fatalf("hits (%d) + coalesced (%d) = %d, want %d", st.Hits, st.Coalesced, st.Hits+st.Coalesced, m-1)
	}
}

// TestEvictionThenRefetch exercises the LRU boundary: a budget of two
// planes, three planes touched, the coldest evicted and transparently
// refetched with identical bytes.
func TestEvictionThenRefetch(t *testing.T) {
	c := New(128, nil) // two 64-byte planes
	var calls atomic.Int64
	keys := []Key{
		{Field: "f", Level: 0, Plane: 0},
		{Field: "f", Level: 0, Plane: 1},
		{Field: "f", Level: 0, Plane: 2},
	}
	first := make([][]byte, len(keys))
	for i, k := range keys {
		raw, _, _, err := getSync(c, k, fetchFor(k, &calls, 64))
		if err != nil {
			t.Fatal(err)
		}
		first[i] = raw
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 128 {
		t.Fatalf("stats after overflow = %+v, want 1 eviction, 2 entries, 128 bytes", st)
	}
	// keys[0] was least recently used and must have been evicted: reading
	// it again refetches and returns identical bytes.
	raw, _, hit, err := getSync(c, keys[0], fetchFor(keys[0], &calls, 64))
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("evicted plane reported as a cache hit")
	}
	if !bytes.Equal(raw, first[0]) {
		t.Fatal("refetched plane differs from the original")
	}
	if calls.Load() != 4 {
		t.Fatalf("fetch ran %d times, want 4 (3 cold + 1 refetch)", calls.Load())
	}
	// keys[2] stayed resident through the refetch eviction cycle or was
	// evicted in turn — either way a hit or a refetch must return the same
	// bytes.
	raw, _, _, err = getSync(c, keys[2], fetchFor(keys[2], &calls, 64))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, first[2]) {
		t.Fatal("plane 2 bytes changed across eviction churn")
	}
}

func TestOversizePlaneIsServedButNotCached(t *testing.T) {
	c := New(16, nil)
	key := Key{Field: "f", Level: 0, Plane: 0}
	var calls atomic.Int64
	for i := 0; i < 2; i++ {
		raw, _, hit, err := getSync(c, key, fetchFor(key, &calls, 64))
		if err != nil {
			t.Fatal(err)
		}
		if hit {
			t.Fatal("oversize plane reported as cached")
		}
		if len(raw) != 64 {
			t.Fatalf("read %d bytes, want 64", len(raw))
		}
	}
	st := c.Stats()
	if st.Oversize != 2 || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want 2 oversize, empty cache", st)
	}
}

// TestOversizePlaneUnderConcurrency pins the oversize path's concurrency
// contract: a wave of goroutines missing on a plane bigger than the whole
// budget still coalesces onto one store read, everyone gets the bytes, the
// entry is never inserted (no poisoning — the next wave misses again and
// pays exactly one more read), and the oversize counter counts insert
// attempts, not waiters.
func TestOversizePlaneUnderConcurrency(t *testing.T) {
	c := New(16, nil)
	key := Key{Field: "f", Level: 0, Plane: 0}
	var calls atomic.Int64
	const m, waves = 16, 3
	for wave := 0; wave < waves; wave++ {
		release := make(chan struct{})
		fetch := func() ([]byte, int64, error) {
			calls.Add(1)
			<-release
			return bytes.Repeat([]byte{7}, 64), 32, nil
		}
		var started, done sync.WaitGroup
		started.Add(m)
		done.Add(m)
		errs := make([]error, m)
		for i := 0; i < m; i++ {
			go func(i int) {
				defer done.Done()
				started.Done()
				raw, payload, hit, err := getSync(c, key, fetch)
				switch {
				case err != nil:
					errs[i] = err
				case hit:
					errs[i] = fmt.Errorf("oversize plane reported as a cache hit")
				case len(raw) != 64 || payload != 32:
					errs[i] = fmt.Errorf("wrong result len=%d payload=%d", len(raw), payload)
				}
			}(i)
		}
		started.Wait()
		// An oversize plane leaves no entry behind, so a reader arriving
		// after the flight landed would rightly fetch again: hold the flight
		// until the whole wave is on it.
		waitFor(t, func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			f, ok := c.flights[key]
			return ok && f.waiters == m
		})
		close(release)
		done.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("wave %d goroutine %d: %v", wave, i, err)
			}
		}
		if got := calls.Load(); got != int64(wave+1) {
			t.Fatalf("after wave %d the store served %d reads, want %d (one per wave)", wave, got, wave+1)
		}
	}
	st := c.Stats()
	if st.Oversize != waves {
		t.Fatalf("oversize = %d, want %d (one insert attempt per wave)", st.Oversize, waves)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v: oversize plane leaked into the cache", st)
	}
	// The budget is still fully available: a plane that fits caches fine.
	small := Key{Field: "f", Level: 0, Plane: 1}
	var smallCalls atomic.Int64
	getSync(c, small, fetchFor(small, &smallCalls, 8))
	if _, _, hit, _ := getSync(c, small, fetchFor(small, &smallCalls, 8)); !hit {
		t.Fatal("small plane not cached after oversize churn")
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New(0, nil)
	key := Key{Field: "f", Level: 0, Plane: 0}
	boom := errors.New("tier offline")
	fail := true
	fetch := func() ([]byte, int64, error) {
		if fail {
			return nil, 7, boom
		}
		return []byte{9}, 1, nil
	}
	if _, payload, _, err := getSync(c, key, fetch); !errors.Is(err, boom) || payload != 7 {
		t.Fatalf("failed flight: payload=%d err=%v, want 7/boom", payload, err)
	}
	if c.Len() != 0 {
		t.Fatal("failed fetch left an entry behind")
	}
	fail = false
	raw, _, hit, err := getSync(c, key, fetch)
	if err != nil || hit || !bytes.Equal(raw, []byte{9}) {
		t.Fatalf("recovery read: raw=%v hit=%v err=%v", raw, hit, err)
	}
}

func TestInvalidateDropsEntry(t *testing.T) {
	c := New(0, nil)
	key := Key{Field: "f", Level: 0, Plane: 0}
	var calls atomic.Int64
	if _, _, _, err := getSync(c, key, fetchFor(key, &calls, 8)); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(key)
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatal("Invalidate left state behind")
	}
	if _, _, hit, err := getSync(c, key, fetchFor(key, &calls, 8)); err != nil || hit {
		t.Fatalf("read after invalidate: hit=%v err=%v, want a fresh miss", hit, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("fetch ran %d times, want 2", calls.Load())
	}
}

// TestInstrumentFoldsExistingCounts pins the repo-wide instrument
// contract: a cache built with o counts into o's registry from its first
// operation, and Stats() reads those same instruments.
func TestInstrumentFoldsExistingCounts(t *testing.T) {
	o := obs.New()
	c := New(0, o)
	key := Key{Field: "f", Level: 0, Plane: 0}
	var calls atomic.Int64
	for i := 0; i < 3; i++ {
		getSync(c, key, fetchFor(key, &calls, 32))
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["servecache.hits"] != 2 || snap.Counters["servecache.misses"] != 1 {
		t.Fatalf("registry counters = %v, want hits 2, misses 1", snap.Counters)
	}
	if snap.Gauges["servecache.bytes"] != 32 || snap.Gauges["servecache.entries"] != 1 {
		t.Fatalf("registry gauges = %v, want bytes 32, entries 1", snap.Gauges)
	}
	if snap.Histograms["servecache.fetch_seconds.hit"].Count != 2 || snap.Histograms["servecache.fetch_seconds.miss"].Count != 1 {
		t.Fatalf("latency histogram counts = hit %d, miss %d, want 2 and 1",
			snap.Histograms["servecache.fetch_seconds.hit"].Count, snap.Histograms["servecache.fetch_seconds.miss"].Count)
	}
	st := c.Stats()
	if st.Hits != snap.Counters["servecache.hits"] || st.Misses != snap.Counters["servecache.misses"] || st.Bytes != 32 || st.Entries != 1 {
		t.Fatalf("Stats() = %+v disagrees with the registry %v", st, snap.Counters)
	}
}
