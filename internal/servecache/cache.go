// Package servecache is the shared read-path cache of the serving layer: a
// concurrency-safe, byte-budget LRU over *decompressed* plane bitsets keyed
// by (field, level, plane), with singleflight deduplication so N concurrent
// sessions asking for the same not-yet-materialized plane trigger exactly
// one store read and one lossless decompression.
//
// The paper's core usage pattern (§II-A) is many analysts progressively
// refining the same refactored field. Without sharing, every core.Session
// re-fetches and re-decompresses its own copy of every plane; the cache
// makes the decompression/recomposition pipeline's dominant costs — segment
// I/O and the lossless stage — pay-once across sessions, which is what a
// many-readers-one-store deployment needs.
//
// The cache stores decompressed planes rather than compressed payloads
// because decompression dominates a warm read and the decoded bitsets are
// immutable (bitplane.DecodePartial only reads them), so one copy can back
// any number of concurrent reconstructions. Entries also remember the
// compressed payload size their fetch moved, so per-session byte accounting
// (core.Session.BytesFetched) is identical with the cache on or off.
package servecache

import (
	"container/list"
	"context"
	"sync"
	"time"

	"pmgard/internal/obs"
)

// Key identifies one cached plane. Codec and Field together namespace the
// (level, plane) coordinates — two stores serving different fields (or
// different timesteps of the same field) must use distinct Field strings,
// and the same field refactored by two progressive-codec backends must use
// distinct Codec strings, or they will share entries.
type Key struct {
	// Codec is the progressive-codec backend ID the plane was produced by
	// ("mgard", "interp"). Sessions fill it from the artifact header, so two
	// backends serving the same field name can never collide.
	Codec string
	// Field is the cache namespace, typically "<field>@<timestep>".
	Field string
	// Level is the coefficient level of the plane.
	Level int
	// Plane is the bit-plane index within the level.
	Plane int
}

// Source materializes planes on cache misses. A long-lived fetcher (a
// session's store binding, the shard router's node client) implements it
// once, so the cache hit path needs no per-call closure and stays
// allocation-free.
type Source interface {
	// FetchPlane fetches and decompresses the plane identified by key: it
	// returns the decompressed plane bitset, the compressed payload bytes
	// the fetch moved off the store, and an error. On error the payload
	// count is still meaningful — it is the bytes a failed fetch transferred
	// (a corrupt segment that arrived but did not decode), which sessions
	// account as wasted.
	//
	// ctx is the cache's *flight* context, not any one caller's: it is
	// cancelled only when every waiter coalesced onto the flight has
	// abandoned it — never when one of several waiters times out.
	FetchPlane(ctx context.Context, key Key) (raw []byte, payload int64, err error)
}

// entry is one cached plane: the decompressed bitset plus the compressed
// payload size its fetch moved (replayed to every later hit so per-session
// accounting matches the uncached path).
type entry struct {
	key     Key
	raw     []byte
	payload int64
	elem    *list.Element
}

// flight is one in-progress fetch; followers block on done and read the
// leader's result.
type flight struct {
	done    chan struct{}
	raw     []byte
	payload int64
	err     error
	// waiters counts callers whose result depends on this flight, guarded
	// by Cache.mu. A cancelled waiter detaches by decrementing it; when the
	// count reaches zero the flight context is cancelled so no orphaned
	// fetch keeps running. Non-cancellable waiters never detach, pinning
	// the flight to completion.
	waiters int
	// cancel ends the flight context. Nil for flights whose leader cannot
	// be cancelled: it never detaches, so the flight always runs to
	// completion.
	cancel context.CancelFunc
}

// Stats is a point-in-time view over the cache counters, for tests and CLI
// reporting. The counters themselves live in obs instruments (standalone by
// default, registry-backed after Instrument), so the same numbers appear in
// a -metrics-out snapshot and in this struct.
type Stats struct {
	// Hits is the number of Get calls served from a cached entry.
	Hits int64
	// Misses is the number of Get calls that led a fetch.
	Misses int64
	// Coalesced is the number of Get calls that piggybacked on an in-flight
	// fetch instead of issuing their own.
	Coalesced int64
	// Evictions is the number of entries evicted to fit the byte budget.
	Evictions int64
	// Oversize is the number of fetched planes too large to cache at all.
	Oversize int64
	// Detached is the number of Get waiters that abandoned an in-flight
	// fetch because their context ended before it landed.
	Detached int64
	// Bytes is the decompressed bytes currently held.
	Bytes int64
	// Entries is the number of planes currently held.
	Entries int64
}

// cacheCounters are the live instruments behind Stats. Standalone zero
// values count exactly even without a registry; Instrument rebinds them to
// shared, registry-named instruments.
type cacheCounters struct {
	hits      *obs.Counter
	misses    *obs.Counter
	coalesced *obs.Counter
	evictions *obs.Counter
	oversize  *obs.Counter
	detached  *obs.Counter
	bytes     *obs.Gauge
	entries   *obs.Gauge
	hitSecs   *obs.Histogram
	missSecs  *obs.Histogram
}

func newCacheCounters() cacheCounters {
	return cacheCounters{
		hits:      new(obs.Counter),
		misses:    new(obs.Counter),
		coalesced: new(obs.Counter),
		evictions: new(obs.Counter),
		oversize:  new(obs.Counter),
		detached:  new(obs.Counter),
		bytes:     new(obs.Gauge),
		entries:   new(obs.Gauge),
		hitSecs:   obs.NewHistogram(obs.LatencyBuckets()),
		missSecs:  obs.NewHistogram(obs.LatencyBuckets()),
	}
}

// Cache is the shared plane cache. It is safe for concurrent use; every
// method may be called from any goroutine. The zero value is not usable;
// call New.
//
// Layering: the cache belongs *above* the storage resilience stack — wrap
// a storage.RetryingSource (or any tiered store or fault-injecting
// wrapper) in the Source, so that retries, backoff and fault
// classification for a contended plane run once for the whole flight
// instead of once per session.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[Key]*entry
	lru     *list.List // front = most recently used
	flights map[Key]*flight
	c       cacheCounters
}

// New returns a cache bounded to budget decompressed bytes. budget <= 0
// means unbounded (entries are never evicted). The budget counts plane
// bitset bytes only; per-entry bookkeeping overhead is not accounted.
func New(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		entries: make(map[Key]*entry),
		lru:     list.New(),
		flights: make(map[Key]*flight),
		c:       newCacheCounters(),
	}
}

// Instrument rebinds the cache counters to shared instruments in o's
// registry under servecache.*, folding in anything counted so far, so a
// metrics snapshot and Stats() report the same numbers. Call it before the
// cache is shared across goroutines; instrumenting mid-flight races with
// concurrent reads. A nil or metrics-less o is a no-op. Histogram contents
// recorded before the call are not transferred.
func (c *Cache) Instrument(o *obs.Obs) {
	if o == nil || o.Metrics == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bind := func(dst **obs.Counter, name string) {
		ctr := o.Counter("servecache." + name)
		ctr.Add((*dst).Value())
		*dst = ctr
	}
	bind(&c.c.hits, "hits")
	bind(&c.c.misses, "misses")
	bind(&c.c.coalesced, "coalesced")
	bind(&c.c.evictions, "evictions")
	bind(&c.c.oversize, "oversize")
	bind(&c.c.detached, "detached")
	bindGauge := func(dst **obs.Gauge, name string) {
		g := o.Gauge("servecache." + name)
		g.Add((*dst).Value())
		*dst = g
	}
	bindGauge(&c.c.bytes, "bytes")
	bindGauge(&c.c.entries, "entries")
	c.c.hitSecs = o.Histogram("servecache.fetch_seconds.hit", obs.LatencyBuckets())
	c.c.missSecs = o.Histogram("servecache.fetch_seconds.miss", obs.LatencyBuckets())
}

// Get returns the decompressed plane for key, fetching it from src on a
// miss. It returns the plane bitset, the compressed payload bytes the
// plane's fetch moved (replayed on hits, so callers account identical bytes
// whether the cache served them or the store did), and whether the call was
// served from an already-cached entry. The returned bitset is shared:
// callers must treat it as immutable.
//
// Exactly one fetch runs per key at a time: concurrent callers of a
// not-yet-cached key coalesce onto the leader's flight and share its
// result, including its error. Errors are not cached — the next Get after a
// failed flight starts a fresh fetch.
//
// Cancellation never crosses between callers:
//
//   - the fetch runs under the *flight* context, not the caller's: it is
//     derived via context.WithoutCancel so one waiter's deadline never
//     aborts a fetch other waiters still depend on.
//   - a waiter whose ctx ends before the flight lands detaches and returns
//     ctx's error immediately; the fetch keeps running for the remaining
//     waiters, and its result is still cached.
//   - when the *last* waiter detaches, the flight context is cancelled so no
//     orphaned fetch keeps hitting the store. A waiter whose ctx cannot be
//     cancelled never detaches, pinning the flight to completion.
//
// A cancelled waiter therefore never poisons concurrent waiters: survivors
// always observe the real fetch result.
func (c *Cache) Get(ctx context.Context, key Key, src Source) (raw []byte, payload int64, hit bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, false, err
	}
	start := time.Now()
	sp := obs.SpanFromContext(ctx).Child("servecache.get")
	sp.SetAttr("level", key.Level)
	sp.SetAttr("plane", key.Plane)
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		raw, payload = e.raw, e.payload
		c.mu.Unlock()
		c.c.hits.Add(1)
		c.c.hitSecs.Observe(time.Since(start).Seconds())
		if sp != nil {
			// Attributes box their values; skipping them untraced keeps the
			// hit path allocation-free.
			sp.SetAttr("outcome", "hit")
			sp.SetAttr("bytes", payload)
			sp.End()
		}
		return raw, payload, true, nil
	}
	if f, ok := c.flights[key]; ok {
		f.waiters++
		c.mu.Unlock()
		c.c.coalesced.Add(1)
		sp.SetAttr("outcome", "coalesced")
		return c.awaitFlight(ctx, key, f, start, sp)
	}
	f := &flight{done: make(chan struct{}), waiters: 1}
	// A leader that cannot be cancelled never detaches, so it runs the fetch
	// inline under its own ctx; a cancellable leader hands the fetch to a
	// goroutine so it can return early without abandoning followers.
	fctx, inline := ctx, ctx.Done() == nil
	if !inline {
		fctx, f.cancel = context.WithCancel(context.WithoutCancel(ctx))
	}
	// The flight's store read nests under the leader's cache span (span
	// values survive WithoutCancel, so the leader detaching cancels the
	// fetch only when it was the last waiter — never the span chain).
	fctx = obs.ContextWithSpan(fctx, sp)
	c.flights[key] = f
	c.mu.Unlock()
	c.c.misses.Add(1)
	sp.SetAttr("outcome", "miss")
	if inline {
		c.runFlight(fctx, key, f, src)
	} else {
		go c.runFlight(fctx, key, f, src)
	}
	return c.awaitFlight(ctx, key, f, start, sp)
}

// runFlight executes one fetch and completes its flight: result recorded,
// flight unregistered, entry inserted on success, waiters released.
func (c *Cache) runFlight(fctx context.Context, key Key, f *flight, src Source) {
	f.raw, f.payload, f.err = src.FetchPlane(fctx, key)
	c.mu.Lock()
	// An abandoned flight was already unregistered by its last waiter, and
	// the key may since host a fresh flight — only remove our own.
	if c.flights[key] == f {
		delete(c.flights, key)
	}
	if f.err == nil {
		c.insertLocked(key, f.raw, f.payload)
	}
	c.mu.Unlock()
	close(f.done)
	if f.cancel != nil {
		f.cancel()
	}
}

// awaitFlight blocks one waiter on a flight until the fetch lands or the
// waiter's ctx ends, detaching (and cancelling the flight when it was the
// last waiter) in the latter case. sp is the waiter's cache span; it ends
// here with the flight's outcome — a cancelled status on detach, so a
// killed waiter's trace shows exactly where it stopped waiting.
func (c *Cache) awaitFlight(ctx context.Context, key Key, f *flight, start time.Time, sp *obs.Span) ([]byte, int64, bool, error) {
	select {
	case <-f.done:
		c.c.missSecs.Observe(time.Since(start).Seconds())
		sp.SetAttr("bytes", f.payload)
		sp.Fail(f.err)
		sp.End()
		return f.raw, f.payload, false, f.err
	case <-ctx.Done():
	}
	c.mu.Lock()
	select {
	case <-f.done:
		// The fetch landed while cancellation was being processed; the
		// result is ready, so take it rather than discard it.
		c.mu.Unlock()
		c.c.missSecs.Observe(time.Since(start).Seconds())
		sp.SetAttr("bytes", f.payload)
		sp.Fail(f.err)
		sp.End()
		return f.raw, f.payload, false, f.err
	default:
	}
	f.waiters--
	last := f.waiters == 0
	if last && c.flights[key] == f {
		// Unregister the doomed flight in the same critical section as the
		// final detach, so a caller arriving after the abandonment never
		// coalesces onto it and inherits a cancellation it did not ask for.
		delete(c.flights, key)
	}
	c.mu.Unlock()
	if last && f.cancel != nil {
		f.cancel()
	}
	c.c.detached.Add(1)
	sp.SetAttr("detached", true)
	sp.Fail(ctx.Err())
	sp.End()
	return nil, 0, false, ctx.Err()
}

// insertLocked adds a fetched plane, evicting least-recently-used entries
// until the budget holds. Planes larger than the whole budget are returned
// to the caller but never cached. c.mu must be held.
func (c *Cache) insertLocked(key Key, raw []byte, payload int64) {
	if _, ok := c.entries[key]; ok {
		// A racing insert for the same key (possible only through Invalidate
		// interleavings) keeps the existing entry.
		return
	}
	size := int64(len(raw))
	if c.budget > 0 && size > c.budget {
		c.c.oversize.Add(1)
		return
	}
	for c.budget > 0 && c.bytes+size > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back.Value.(*entry))
		c.c.evictions.Add(1)
	}
	e := &entry{key: key, raw: raw, payload: payload}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += size
	c.c.bytes.Set(float64(c.bytes))
	c.c.entries.Set(float64(len(c.entries)))
}

// removeLocked unlinks an entry and updates the byte total. c.mu must be
// held.
func (c *Cache) removeLocked(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.raw))
	c.c.bytes.Set(float64(c.bytes))
	c.c.entries.Set(float64(len(c.entries)))
}

// Invalidate drops the cached entry for key, if any. In-flight fetches are
// unaffected (their result will still be inserted when they land).
func (c *Cache) Invalidate(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.removeLocked(e)
	}
}

// Len returns the number of cached planes.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the decompressed bytes currently held.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Budget returns the configured byte budget (<= 0 means unbounded).
func (c *Cache) Budget() int64 { return c.budget }

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, entries := c.bytes, int64(len(c.entries))
	c.mu.Unlock()
	return Stats{
		Hits:      c.c.hits.Value(),
		Misses:    c.c.misses.Value(),
		Coalesced: c.c.coalesced.Value(),
		Evictions: c.c.evictions.Value(),
		Oversize:  c.c.oversize.Value(),
		Detached:  c.c.detached.Value(),
		Bytes:     bytes,
		Entries:   entries,
	}
}
