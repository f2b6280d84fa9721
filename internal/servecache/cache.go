// Package servecache is the shared read-path cache of the serving layer: a
// concurrency-safe, byte-budget LRU over *decompressed* plane bitsets keyed
// by (field, level, plane), with singleflight deduplication so N concurrent
// sessions asking for the same not-yet-materialized plane trigger exactly
// one store read and one lossless decompression. It is asked for a run of
// planes of one level at a time (Run) and fetches the run's misses with one
// source call, so a remote source pays one round trip per level, not one
// per plane; entries, flights and verdicts stay per plane.
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
	"errors"
	"fmt"
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

// Run names planes of one level of one field: the unit a Cache is asked for
// and the unit a Source fetches. A single plane is a run of one. Codec, Field
// and Level are a Key's; Planes completes it once per plane.
type Run struct {
	// Codec is the progressive-codec backend ID (see Key.Codec).
	Codec string
	// Field is the cache namespace (see Key.Field).
	Field string
	// Level is the coefficient level every plane of the run belongs to.
	Level int
	// Planes are the bit-plane indexes, distinct, in the order their
	// verdicts are wanted — ascending for a session extending a level's
	// prefix, arbitrary for a shard node answering a router.
	Planes []int
}

// Key returns the cache key of the run's i-th plane.
func (r Run) Key(i int) Key {
	return Key{Codec: r.Codec, Field: r.Field, Level: r.Level, Plane: r.Planes[i]}
}

// Plane is the verdict on one plane of a run.
type Plane struct {
	// Raw is the decompressed plane bitset; shared, so callers must treat it
	// as immutable. Nil when Err is set.
	Raw []byte
	// Payload is the compressed payload bytes the plane's fetch moved off
	// the store (replayed on hits, so callers account identical bytes
	// whether the cache served the plane or the store did). With Err set it
	// is the bytes a failed fetch still transferred — a corrupt segment
	// that arrived but did not decode — which sessions account as wasted.
	Payload int64
	// Hit reports a plane served from an already-cached entry. Only a Cache
	// sets it.
	Hit bool
	// Err is why the plane could not be had: the fetch's own error, the
	// waiter's ctx error, or ErrSkipped.
	Err error
}

// ErrSkipped is the verdict on a plane that was not waited for or not
// attempted because an earlier plane of its run had already failed: planes
// decode in order, so nothing above a failed plane is of use to the caller.
var ErrSkipped = errors.New("servecache: plane skipped, an earlier plane of the run failed")

// Source materializes planes on cache misses. A long-lived fetcher (a
// session's store binding, the shard router's node client) implements it
// once, so the cache hit path needs no per-call closure.
type Source interface {
	// FetchPlanes fetches and decompresses the planes of run and returns
	// their verdicts in run order. Every plane's verdict is its own: a lost
	// plane never fails the planes around it. A source that reads plane by
	// plane may stop after the first plane that failed and return fewer
	// verdicts than planes — the rest were not attempted — but never none
	// for a non-empty run.
	//
	// ctx is the cache's *fetch* context, not any one caller's: it is
	// cancelled only when every waiter of every plane of the run has
	// abandoned it — never when one of several waiters times out.
	FetchPlanes(ctx context.Context, run Run) []Plane
}

// skipRest marks the verdicts from i on as ErrSkipped.
func skipRest(out []Plane, i int) {
	for ; i < len(out); i++ {
		out[i] = Plane{Err: ErrSkipped}
	}
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

// flight is one plane of an in-progress fetch; waiters block on done and
// read the verdict the fetch landed.
type flight struct {
	key  Key
	done chan struct{}
	// res is the plane's verdict and skipped says there is none — the
	// source stopped before the plane, so a waiter that still wants it asks
	// again. Both are written under Cache.mu before landed is set and done
	// is closed.
	res     Plane
	skipped bool
	landed  bool
	// waiters counts callers whose result depends on this flight, guarded
	// by Cache.mu. A waiter detaches by decrementing it — its ctx ended, or
	// an earlier plane of its run failed; a flight nobody waits for is
	// unregistered. Non-cancellable waiters of a healthy run never detach.
	waiters int
	fetch   *fetch
}

// fetch is one Source call and the flights it lands: the misses of one Get.
type fetch struct {
	run     Run
	flights []*flight
	// live counts the flights somebody still waits for, guarded by
	// Cache.mu; at zero the fetch context is cancelled so no orphaned read
	// keeps running.
	live int
	// ctx is the fetch context and cancel ends it. cancel is nil when the
	// leader cannot be cancelled: the fetch then runs on the leader's
	// goroutine under the leader's ctx, to completion.
	ctx    context.Context
	cancel context.CancelFunc
}

// Stats is a point-in-time view over the cache counters, for tests and CLI
// reporting. The counters themselves live in obs instruments (standalone by
// default, registry-backed after Instrument), so the same numbers appear in
// a -metrics-out snapshot and in this struct.
type Stats struct {
	// Hits is the number of planes served from a cached entry.
	Hits int64
	// Misses is the number of planes whose fetch a Get call led.
	Misses int64
	// Coalesced is the number of planes a Get call took from somebody
	// else's in-flight fetch instead of issuing its own.
	Coalesced int64
	// Evictions is the number of entries evicted to fit the byte budget.
	Evictions int64
	// Oversize is the number of fetched planes too large to cache at all.
	Oversize int64
	// Detached is the number of Get calls that abandoned an in-flight
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
// recorded before the call are not transferred. The two latency histograms
// take one observation per Get: fetch_seconds.hit the per-plane share of a
// call every plane of which was cached, fetch_seconds.miss the whole of a
// call that waited for a fetch.
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

// Get returns the verdicts on the planes of run, in run order, fetching
// from src whatever is neither cached nor already in flight. Cached planes
// are hits; planes another caller is fetching are joined; the remaining
// misses become one src call this caller leads, which lands all of them.
// The returned bitsets are shared: callers must treat them as immutable.
//
// Exactly one fetch runs per plane at a time, and every plane keeps its own
// verdict: a caller that joined plane k+1 of somebody's fetch never
// inherits plane k's error. Errors are not cached — the next Get after a
// failed fetch starts a fresh one. A caller wants a plane only as long as
// every earlier plane of its run arrived: from the first failed plane on,
// planes that have landed keep their verdict (their bytes moved) and the
// rest are ErrSkipped and no longer waited for.
//
// Cancellation never crosses between callers:
//
//   - the fetch runs under the *fetch* context, not the caller's: it is
//     derived via context.WithoutCancel so one waiter's deadline never
//     aborts a fetch other waiters still depend on.
//   - a waiter whose ctx ends before its planes land detaches from them and
//     gets ctx's error as the verdict on the plane it was waiting for; the
//     fetch keeps running for the remaining waiters, and its result is
//     still cached.
//   - when the last waiter of the last plane detaches, the fetch context is
//     cancelled so no orphaned fetch keeps hitting the store. A waiter
//     whose ctx cannot be cancelled never abandons a healthy run, pinning
//     its fetches to completion.
//
// A cancelled waiter therefore never poisons concurrent waiters: survivors
// always observe the real fetch result.
//
// A nil *Cache caches nothing and fetches straight from src.
func (c *Cache) Get(ctx context.Context, run Run, src Source) []Plane {
	n := len(run.Planes)
	out := make([]Plane, n)
	if n == 0 {
		return out
	}
	if err := ctx.Err(); err != nil {
		out[0].Err = err
		skipRest(out, 1)
		return out
	}
	if c == nil {
		skipRest(out, copy(out, src.FetchPlanes(ctx, run)))
		return out
	}
	start := time.Now()
	sp := obs.SpanFromContext(ctx).Child("servecache.get")
	// wait[i] is the flight plane i's verdict will come from; nil for a hit
	// and for every plane before next, whose verdicts are in. A run of hits
	// never allocates it.
	var wait []*flight
	var hits, joined int
	detached := false
	for next := 0; next < n; {
		h, j, ft := c.join(ctx, sp, run, out, &wait, next)
		hits, joined = hits+h, joined+j
		if wait == nil {
			break
		}
		if ft != nil {
			// A leader that cannot be cancelled never detaches, so it runs
			// the fetch inline; a cancellable leader hands it to a goroutine
			// so it can return early without abandoning followers.
			if ft.cancel == nil {
				c.runFetch(ft, src)
			} else {
				go c.runFetch(ft, src)
			}
		}
		next, detached = c.await(ctx, out, wait, next)
	}
	if hits == n {
		c.c.hitSecs.Observe(time.Since(start).Seconds() / float64(n))
	} else {
		c.c.missSecs.Observe(time.Since(start).Seconds())
	}
	if detached {
		c.c.detached.Add(1)
	}
	if sp != nil {
		// Attributes box their values; skipping them untraced keeps a run
		// of hits to its one allocation, the verdicts.
		var bytes int64
		var err error
		for i := range out {
			if out[i].Err == nil {
				bytes += out[i].Payload
			} else if err == nil {
				err = out[i].Err
			}
		}
		sp.SetAttr("level", run.Level)
		sp.SetAttr("first", run.Planes[0])
		sp.SetAttr("planes", n)
		sp.SetAttr("hits", hits)
		sp.SetAttr("coalesced", joined)
		sp.SetAttr("bytes", bytes)
		if detached {
			sp.SetAttr("detached", true)
		}
		sp.Fail(err)
		sp.End()
	}
	return out
}

// join settles, under one lock hold, every plane of run from `from` on that
// has neither verdict nor flight: a cached plane gets its hit verdict, a
// plane in flight is joined, and the rest become the flights of one fetch
// the caller leads (nil when there are none). It returns how many planes it
// found cached and how many it joined.
func (c *Cache) join(ctx context.Context, sp *obs.Span, run Run, out []Plane, waits *[]*flight, from int) (hits, joined int, ft *fetch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	wait := *waits
	for i := from; i < len(out); i++ {
		if out[i].Hit || wait != nil && wait[i] != nil {
			continue
		}
		key := run.Key(i)
		if e, ok := c.entries[key]; ok {
			c.lru.MoveToFront(e.elem)
			out[i] = Plane{Raw: e.raw, Payload: e.payload, Hit: true}
			hits++
			continue
		}
		if wait == nil {
			wait = make([]*flight, len(out))
			*waits = wait
		}
		if f, ok := c.flights[key]; ok {
			f.waiters++
			wait[i] = f
			joined++
			continue
		}
		if ft == nil {
			ft = &fetch{run: Run{Codec: run.Codec, Field: run.Field, Level: run.Level}}
		}
		f := &flight{key: key, done: make(chan struct{}), waiters: 1, fetch: ft}
		ft.run.Planes = append(ft.run.Planes, key.Plane)
		ft.flights = append(ft.flights, f)
		c.flights[key] = f
		wait[i] = f
	}
	c.c.hits.Add(int64(hits))
	c.c.coalesced.Add(int64(joined))
	if ft == nil {
		return hits, joined, nil
	}
	c.c.misses.Add(int64(len(ft.flights)))
	ft.live = len(ft.flights)
	// The fetch's store reads nest under the leader's cache span (span
	// values survive WithoutCancel, so the leader detaching cancels the
	// fetch only when it was the last waiter — never the span chain).
	ft.ctx = ctx
	if ctx.Done() != nil {
		ft.ctx, ft.cancel = context.WithCancel(context.WithoutCancel(ctx))
	}
	ft.ctx = obs.ContextWithSpan(ft.ctx, sp)
	return hits, joined, ft
}

// await collects the verdicts of the planes from `from` on, in run order,
// until all are in — it then returns len(out) — or it meets a plane whose
// leader stopped short of it, which it returns for the caller to ask for
// again. A failed plane or ctx ending settles every later plane at once (see
// abandon); detached reports that ctx ended with flights still wanted.
func (c *Cache) await(ctx context.Context, out []Plane, wait []*flight, from int) (next int, detached bool) {
	for i := from; i < len(out); i++ {
		f := wait[i]
		if f == nil {
			continue
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return len(out), c.abandon(out, wait, i, ctx.Err()) > 0
		}
		wait[i] = nil
		if f.skipped {
			return i, false
		}
		out[i] = f.res
		if f.res.Err != nil {
			c.abandon(out, wait, i+1, ErrSkipped)
			return len(out), false
		}
	}
	return len(out), false
}

// runFetch executes one source call and lands its flights: verdicts
// recorded, flights unregistered, entries inserted on success, waiters
// released.
func (c *Cache) runFetch(ft *fetch, src Source) {
	got := src.FetchPlanes(ft.ctx, ft.run)
	if len(got) == 0 {
		got = []Plane{{Err: fmt.Errorf("servecache: source returned no verdict for level %d plane %d", ft.run.Level, ft.run.Planes[0])}}
	}
	c.mu.Lock()
	for i, f := range ft.flights {
		// An abandoned flight was already unregistered by its last waiter,
		// and the key may since host a fresh flight — only remove our own.
		if c.flights[f.key] == f {
			delete(c.flights, f.key)
		}
		if i < len(got) {
			f.res = Plane{Raw: got[i].Raw, Payload: got[i].Payload, Err: got[i].Err}
			if f.res.Err == nil {
				c.insertLocked(f.key, f.res.Raw, f.res.Payload)
			}
		} else {
			f.skipped = true
		}
		f.landed = true
	}
	c.mu.Unlock()
	for _, f := range ft.flights {
		close(f.done)
	}
	if ft.cancel != nil {
		ft.cancel()
	}
}

// abandon ends a waiter's interest in the planes from `from` on: verdicts
// that have landed are taken (the fetch landed while the cancellation or
// the failure was being processed; the result is ready, so it is not
// discarded), every other flight is detached from, and the first plane
// without a verdict gets err, the ones after it ErrSkipped. A flight left
// without waiters is unregistered in the same critical section, so a caller
// arriving after the abandonment never coalesces onto it and inherits a
// cancellation it did not ask for; a fetch left without live flights is
// cancelled. It returns how many flights it detached from.
func (c *Cache) abandon(out []Plane, wait []*flight, from int, err error) (detached int) {
	var cancels []context.CancelFunc
	c.mu.Lock()
	for i := from; i < len(out); i++ {
		f := wait[i]
		if f == nil {
			continue
		}
		wait[i] = nil
		if f.landed && !f.skipped {
			out[i] = f.res
			continue
		}
		out[i] = Plane{Err: err}
		err = ErrSkipped
		if f.landed {
			continue
		}
		detached++
		if f.waiters--; f.waiters > 0 {
			continue
		}
		if c.flights[f.key] == f {
			delete(c.flights, f.key)
		}
		if f.fetch.live--; f.fetch.live == 0 && f.fetch.cancel != nil {
			cancels = append(cancels, f.fetch.cancel)
		}
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	return detached
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
