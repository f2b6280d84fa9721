package core

import (
	"context"
	"fmt"
	"sync"

	"pmgard/internal/bitplane"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/pool"
	"pmgard/internal/retrieval"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// Session is a stateful progressive retrieval: it remembers which planes
// have already been fetched and, on each Refine call, reads only the delta
// needed to reach the new (tighter) tolerance. This is the paper's core
// usage pattern — an analyst starts with a coarse view and progressively
// augments accuracy (§II-A) — and the reason bit-plane encodings are used
// at all: earlier reads are never wasted.
//
// A Session is safe for concurrent use: a mutex guards the fetch state, so
// a serving layer may hand one session to multiple handler goroutines.
// Refinements are serialized against each other — cross-request sharing of
// fetch and decompression work belongs in a servecache.Cache shared by many
// sessions (NewSharedSession), not in concurrent refinements of one.
//
// A session reconstructs in a workspace drawn from a pool shared by the
// sessions of its field's shape; Close hands it back (see Close).
type Session struct {
	header *Header
	// src is the one plane source the session reads from: a validating
	// PlaneStore over local segments, or the shard router's remote-node
	// client. cache, when non-nil, is consulted before it (a nil cache
	// fetches straight from src); run is the header's cache namespace,
	// completed per fetch with the level and the planes wanted.
	src   servecache.Source
	cache *servecache.Cache
	run   servecache.Run
	// pool is the workspace pool of the session's shape.
	pool *workspacePool
	// workers is the fan-out of a refinement's plane fetches and of the
	// level decode; 1 fetches each level's planes as one run on the caller's
	// goroutine.
	workers int
	// mu guards everything below it.
	mu sync.Mutex
	// fetched[l] is how many planes of level l have been read so far.
	fetched []int
	// ws is the session's workspace: the decomposition that places and
	// recomposes the levels, the fetched plane bitsets, ws.planes[l][k], and
	// the words buffers they are transposed into. out is the tensor the
	// latest full-field reconstruction returned (nil before one). Close
	// hands both back to pool and sets ws to nil.
	ws  *workspace
	out *grid.Tensor
	// bytes is the cumulative payload fetched, including payloads delivered
	// by reads that later failed to decode or were discarded above a failed
	// plane.
	bytes int64
	// cacheHits counts planes this session obtained from the shared cache
	// without a store fetch (always 0 without a cache).
	cacheHits int64
	// wsReused and wsAllocated count the workspaces and grids taken from
	// pool and allocated because it was empty, not yet added to o's counters.
	wsReused, wsAllocated int64
	// o records session telemetry when set via Instrument; nil disables it.
	o *obs.Obs
	// levelCtr[l] holds level l's bytes_fetched and planes_fetched counters,
	// resolved once by Instrument.
	levelCtr [][2]*obs.Counter
}

// levelCounterNames[l] names level l's fetch counters; a session's level
// count is its transform's, at most 30.
var levelCounterNames = func() (names [30][2]string) {
	for l := range names {
		names[l] = [2]string{
			fmt.Sprintf("core.session.level%d.bytes_fetched", l),
			fmt.Sprintf("core.session.level%d.planes_fetched", l),
		}
	}
	return names
}()

// planeIndexes[k] = k: every run a session asks for is a window of it
// (Planes ≤ 60).
var planeIndexes = func() (ix [60]int) {
	for k := range ix {
		ix[k] = k
	}
	return ix
}()

// errSessionClosed is what a refinement of a closed session returns.
var errSessionClosed = fmt.Errorf("core: session is closed")

// Instrument records session telemetry — per-level bytes/planes fetched,
// wasted fetch bytes, refinement spans, degraded-mode counters — into o.
// Call before the first RefineTo/Refine; a nil o (the default) disables
// all of it.
func (s *Session) Instrument(o *obs.Obs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.o = o
	s.levelCtr = nil
	if o != nil {
		s.levelCtr = make([][2]*obs.Counter, len(s.header.Levels))
		for l := range s.levelCtr {
			names := &levelCounterNames[l]
			s.levelCtr[l] = [2]*obs.Counter{o.Counter(names[0]), o.Counter(names[1])}
		}
	}
}

// The worker counts of a session opened through NewSession or
// NewSharedSession — what the serving tier runs on every /refine: each
// level's planes fetched as one run and decoded at one worker, recomposition
// at one worker per CPU. The split is inherited, not chosen; choosing it
// deliberately is a performance change that needs its own measurement.
const (
	sessionWorkers          = 1
	sessionRecomposeWorkers = 0
)

// NewSession opens a progressive retrieval session over a compressed field,
// reading segments from src through a validating PlaneStore.
func NewSession(h *Header, src storage.SegmentSource) (*Session, error) {
	store, err := NewPlaneStore(h, src)
	if err != nil {
		return nil, err
	}
	return newSession(h, store, nil, sessionWorkers, sessionRecomposeWorkers)
}

// NewSharedSession opens a progressive retrieval session whose fetch path
// consults cache before planes — the multi-session serving shape: N
// sessions over the same field share fetch and decompression work, and
// concurrent first readers of a plane coalesce onto a single fetch
// (singleflight). planes is a *PlaneStore for local segments (layer the
// cache above the resilience stack: with a storage.RetryingSource below the
// store, the retry loop for a contended plane also runs once per flight) or
// the shard router's FieldClient, whose misses become one network fetch per
// level and node. Entries are namespaced by h.PlaneKey, so every reader of
// one field shares them.
//
// Per-session semantics are preserved exactly: Fetched and BytesFetched
// report the same values whether a plane came from the cache or the source,
// because cache entries replay the compressed payload size their original
// fetch moved.
func NewSharedSession(h *Header, planes servecache.Source, cache *servecache.Cache) (*Session, error) {
	if cache == nil {
		return nil, fmt.Errorf("core: shared session needs a cache")
	}
	return newSession(h, planes, cache, sessionWorkers, sessionRecomposeWorkers)
}

// newSession is the one constructor. workers fans out plane fetches and the
// level decode, recomposeWorkers the recomposition (≤ 0 means one per CPU).
func newSession(h *Header, src servecache.Source, cache *servecache.Cache, workers, recomposeWorkers int) (*Session, error) {
	backend, err := h.backend()
	if err != nil {
		return nil, err
	}
	pool := workspacePoolFor(h, backend, recomposeWorkers)
	ws, reused, err := pool.take(h, backend, recomposeWorkers)
	if err != nil {
		return nil, err
	}
	if ws.dec.Levels() != len(h.Levels) {
		return nil, fmt.Errorf("core: header lists %d levels for a %d-level transform: %w", len(h.Levels), ws.dec.Levels(), storage.ErrCorrupt)
	}
	s := &Session{
		header:  h,
		src:     src,
		cache:   cache,
		run:     h.PlaneRun(0, nil),
		pool:    pool,
		workers: workers,
		fetched: make([]int, len(h.Levels)),
		ws:      ws,
	}
	s.countWorkspace(reused)
	return s, nil
}

// Close hands the session's reconstruction workspace back to the pool of
// its shape for later sessions to reuse: the decomposition its planes
// decode into, its plane table, and the tensor its latest full-field
// refinement returned. That tensor must not be touched afterwards, and a
// later refinement of the session fails. Tensors of earlier refinements and
// coarser RetrieveResolution approximations are never recycled and stay
// valid.
//
// Never calling Close is always correct: the workspace is then left to the
// garbage collector, which is what a caller that keeps the latest tensor
// must do. Close is idempotent.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ws == nil {
		return
	}
	s.pool.put(s.ws)
	if s.out != nil {
		s.pool.grids.Put(s.out)
	}
	s.ws, s.out = nil, nil
}

// countWorkspace tallies one workspace or grid as taken from the pool
// (reused) or allocated.
func (s *Session) countWorkspace(reused bool) {
	if reused {
		s.wsReused++
	} else {
		s.wsAllocated++
	}
}

// Fetched returns the per-level plane counts read so far.
func (s *Session) Fetched() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.fetched...)
}

// BytesFetched returns the cumulative payload bytes read by this session.
func (s *Session) BytesFetched() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// CacheHits returns how many planes this session obtained from the shared
// cache without a store fetch (always 0 for an unshared session).
func (s *Session) CacheHits() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheHits
}

// Degradation reports a degraded-mode refinement: planes the plan wanted
// but could not have because the store lost them permanently. The session
// falls back to the deepest consistent plane prefix per level — planes are
// decoded in order, so everything below the first missing plane is still
// usable — and re-derives the error bound actually achievable from what
// was decoded.
type Degradation struct {
	// Dropped lists the first permanently unavailable plane of each
	// affected level; all deeper planes of that level are dropped with it.
	Dropped []storage.SegmentID
	// Requested[l] is the plane count the plan asked for on level l.
	Requested []int
	// Got[l] is the plane count actually decoded on level l.
	Got []int
	// RequestedTol is the absolute tolerance the refinement targeted.
	RequestedTol float64
	// AchievedBound is the error bound at the decoded plane
	// counts — the guarantee the degraded reconstruction still carries.
	AchievedBound float64
}

// RefineTo extends the session to at least the given per-level plane
// counts, fetching only planes not yet read, and returns the
// reconstruction. Plane counts below what is already fetched are kept (a
// session never un-reads data). A fetch failure or ctx ending aborts the
// refinement but leaves the session consistent and resumable: every plane
// fetched before the failure is retained and accounted, so a later RefineTo
// resumes from exactly where it struck and pays only for the remainder.
func (s *Session) RefineTo(ctx context.Context, target []int) (*grid.Tensor, error) {
	return s.refineTo(ctx, target, len(s.header.Levels)-1)
}

// refineTo is RefineTo reconstructing only the approximation spanned by
// levels 0..upTo (RetrieveResolution's coarser grid); upTo is the finest
// level for the full field.
func (s *Session) refineTo(ctx context.Context, target []int, upTo int) (*grid.Tensor, error) {
	if len(target) != len(s.header.Levels) {
		return nil, fmt.Errorf("core: session target has %d levels, header %d", len(target), len(s.header.Levels))
	}
	for l, want := range target {
		if want < 0 || want > s.header.Planes {
			return nil, fmt.Errorf("core: session target level %d plane count %d out of range", l, want)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ws == nil {
		return nil, errSessionClosed
	}
	sp := s.startSpan(ctx, "session.refine_to")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	for l, want := range target {
		if err := s.fetchLevel(ctx, l, want); err != nil {
			sp.Fail(err)
			return nil, err
		}
	}
	return s.reconstruct(ctx, upTo)
}

// startSpan opens a session-stage span: a child of the request span carried
// by ctx when there is one (the serving tier's per-request trace), otherwise
// a root span in the instrumented tracer (batch pipelines with -trace-out).
// Nil when neither applies, so the uninstrumented path pays one ctx lookup.
func (s *Session) startSpan(ctx context.Context, name string) *obs.Span {
	if parent := obs.SpanFromContext(ctx); parent != nil {
		return parent.Child(name)
	}
	return s.o.Span(name, nil)
}

// fetchLevel extends level l's fetched plane prefix to want planes, asking
// for the missing planes as one run — through the shared cache when the
// session has one — or, with several workers, as one contiguous sub-run per
// worker, read and inflated in parallel into disjoint slots. The session
// keeps the contiguous prefix below the lowest failed plane and returns that
// plane's error, whatever the scheduling, so a mid-level failure never
// desynchronizes fetched/planes/bytes. s.mu must be held.
//
// Failed fetches still count toward BytesFetched when payload was actually
// delivered: a segment that arrives but fails to decompress (corruption,
// truncation), a partial payload returned alongside an error, or a plane
// fetched above the failed one — by another sub-run, or by a remote source
// that asks several nodes — and discarded, moved real bytes off the store
// even though the plane was never decoded. A cached plane above the failed
// one moved nothing.
func (s *Session) fetchLevel(ctx context.Context, l, want int) error {
	have := s.fetched[l]
	if want <= have {
		return nil
	}
	sp := obs.SpanFromContext(ctx).Child("session.fetch_level")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	sp.SetAttr("level", l)
	planes := planeIndexes[have:want:want]
	// The verdicts land in the workspace's slots: one run on the caller's
	// goroutine, or one contiguous sub-run per worker into its own window.
	slots := s.ws.slots[:len(planes)]
	if s.workers == 1 {
		run := s.run
		run.Level, run.Planes = l, planes
		s.cache.Get(ctx, run, s.src, slots)
	} else {
		pool.RunChunks(len(planes), s.workers, pool.NewMetrics(s.o, "fetch"), func(_, lo, hi int) error {
			run := s.run
			run.Level, run.Planes = l, planes[lo:hi]
			s.cache.Get(ctx, run, s.src, slots[lo:hi:hi])
			return nil
		})
	}
	var err error
	var levelBytes, keptBytes, levelHits int64
	for i := range slots {
		sl := &slots[i]
		if err == nil {
			err = sl.Err
		}
		// Only the contiguous prefix of landed planes extends the session.
		if err == nil {
			s.ws.planes[l][have+i] = sl.Raw
			s.fetched[l]++
			keptBytes += sl.Payload
			if sl.Hit {
				levelHits++
			}
		}
		if err == nil || !sl.Hit {
			levelBytes += sl.Payload
		}
	}
	kept := s.fetched[l] - have
	s.bytes += levelBytes
	s.cacheHits += levelHits
	sp.SetAttr("planes", kept)
	sp.SetAttr("bytes", levelBytes)
	sp.SetAttr("cache_hits", levelHits)
	if s.o != nil && kept > 0 {
		s.levelCtr[l][0].Add(keptBytes)
		s.levelCtr[l][1].Add(int64(kept))
		s.o.Counter("core.session.bytes_fetched").Add(keptBytes)
		s.o.Counter("core.session.planes_fetched").Add(int64(kept))
	}
	if err != nil {
		s.o.Counter("core.session.bytes_wasted").Add(levelBytes - keptBytes)
		sp.Fail(err)
	}
	return err
}

// Refine plans greedily under bound at an absolute tolerance, never dropping
// below the already-fetched planes, fetches the delta and reconstructs.
// It returns the reconstruction and the plan actually executed.
//
// Refine fails soft on data loss: when a plane is permanently unavailable
// (the read error classifies as storage.FaultPermanent — a quarantined
// plane, a missing level file, a checksum mismatch), the affected level
// falls back to its deepest consistent plane prefix, the achievable error
// bound is read off the bound table at the planes held, and the
// reconstruction is returned together with a non-nil Degradation report
// instead of an error. Transient failures (including retry exhaustion in
// a storage.RetryingSource) still abort with an error, with the session
// state left consistent for a later retry. So does ctx ending — the
// caller's deadline expiring, the client disconnecting: it aborts with
// ctx's error (it never degrades: only permanent data loss does), and the
// session remains consistent and resumable.
func (s *Session) Refine(ctx context.Context, bound retrieval.Bound, tol float64) (*grid.Tensor, retrieval.Plan, *Degradation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ws == nil {
		return nil, retrieval.Plan{}, nil, errSessionClosed
	}
	sp := s.startSpan(ctx, "session.refine")
	sp.SetAttr("tol", tol)
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	plan, err := greedyPlan(ctx, s.header, bound, tol, s.o)
	if err != nil {
		sp.Fail(err)
		return nil, retrieval.Plan{}, nil, err
	}
	target := plan.Planes
	for l, have := range s.fetched {
		if have > target[l] {
			target[l] = have
		}
	}
	requested := append([]int(nil), target...)
	var dropped []storage.SegmentID
	for l, want := range target {
		if err := s.fetchLevel(ctx, l, want); err != nil {
			if storage.Classify(err) != storage.FaultPermanent {
				sp.Fail(err)
				return nil, retrieval.Plan{}, nil, err
			}
			// fetchLevel stopped at the first unavailable plane; the level's
			// usable prefix is exactly what has been fetched.
			dropped = append(dropped, storage.SegmentID{Level: l, Plane: s.fetched[l]})
			target[l] = s.fetched[l]
		}
	}
	exec, err := retrieval.PlanForPlanes(s.header.LevelInfos(), target)
	if err != nil {
		sp.Fail(err)
		return nil, retrieval.Plan{}, nil, err
	}
	exec.EstimatedError = bound.At(target)
	rec, err := s.reconstruct(ctx, len(s.header.Levels)-1)
	if err != nil {
		sp.Fail(err)
		return nil, retrieval.Plan{}, nil, err
	}
	var deg *Degradation
	if len(dropped) > 0 {
		deg = &Degradation{
			Dropped:       dropped,
			Requested:     requested,
			Got:           append([]int(nil), target...),
			RequestedTol:  tol,
			AchievedBound: exec.EstimatedError,
		}
		// Fold the degradation report into the registry so a -metrics-out
		// snapshot carries the same story the Degradation struct tells.
		if s.o != nil {
			s.o.Counter("core.session.degraded_refines").Add(1)
			var missing int64
			for l := range requested {
				missing += int64(requested[l] - deg.Got[l])
			}
			s.o.Counter("core.session.planes_dropped").Add(missing)
			s.o.Counter("core.session.levels_degraded").Add(int64(len(dropped)))
			s.o.Gauge("core.session.achieved_bound").Set(exec.EstimatedError)
			s.o.Gauge("core.session.requested_tol").Set(tol)
			sp.SetAttr("degraded", true)
		}
	}
	return rec, exec, deg, nil
}

// reconstruct decodes the fetched planes of levels 0..upTo straight to
// their nodes of a workspace grid (decodeInto) and recomposes the grid they
// span there — the full field when upTo is the finest level. A full field
// is returned in that grid, which the session keeps as out until the next
// full-field reconstruction or Close; a coarser grid is gathered into a
// tensor of its own and the workspace grid goes straight back to the pool.
// s.mu must be held.
func (s *Session) reconstruct(ctx context.Context, upTo int) (*grid.Tensor, error) {
	parent := obs.SpanFromContext(ctx)
	dsp := parent.Child("session.decode")
	work, reused := s.pool.takeGrid(s.header.Dims)
	s.countWorkspace(reused)
	hits, built := s.decodeInto(work, upTo, dsp)
	switch {
	case built > 0:
		dsp.SetAttr("words", "built")
	case hits > 0:
		dsp.SetAttr("words", "hit")
	}
	dsp.End()
	rsp := parent.Child("session.recompose")
	defer rsp.End()
	if s.o != nil {
		s.o.Counter("core.session.workspace_reused").Add(s.wsReused)
		s.o.Counter("core.session.workspace_allocated").Add(s.wsAllocated)
		s.o.Counter("core.session.snapshot_hits").Add(hits)
		s.o.Counter("core.session.snapshots_built").Add(built)
	}
	s.wsReused, s.wsAllocated = 0, 0
	rec, err := s.ws.dec.RecomposeInto(upTo, work)
	if rec == work {
		// The previous full field, if any, now belongs to its caller alone.
		s.out = rec
	} else {
		s.pool.grids.Put(work)
	}
	return rec, err
}

// decodeInto writes levels 0..upTo, decoded from their fetched planes, to
// their nodes of work — every such node, and no other — and returns how
// many levels' words came from the shared cache's snapshot and how many the
// session built. It first gathers each level's words: the cache's snapshot
// of the level serves when it holds at least the fetched prefix (a snapshot
// of more planes decodes exactly the same prefix); otherwise the session
// transposes its own planes into the workspace, under a bitplane.transpose
// span, and offers the words to the cache. Then one bitplane.Decode places
// every level in a row-major pass over the plan's run schedule. Spans are
// children of sp when it is set. s.mu must be held.
func (s *Session) decodeInto(work *grid.Tensor, upTo int, sp *obs.Span) (hits, built int64) {
	for l := 0; l <= upTo; l++ {
		lm, b := &s.header.Levels[l], s.fetched[l]
		enc := &s.ws.encs[l]
		enc.N, enc.Planes, enc.Exponent, enc.Bits = lm.N, s.header.Planes, lm.Exponent, s.ws.planes[l]
		var words *bitplane.Words
		if b > 0 {
			run := s.run
			run.Level = l
			key := run.LevelKey()
			words = s.cache.Snapshot(key)
			if words != nil && words.Prefix >= b && words.Planes == enc.Planes && words.Len() == enc.N {
				hits++
			} else {
				built++
				if s.ws.words[l] == nil {
					s.ws.words[l] = new(bitplane.Words)
				}
				words = s.ws.words[l]
				tsp := sp.Child("bitplane.transpose")
				tsp.SetAttr("level", l)
				tsp.SetAttr("planes", b)
				enc.TransposeWords(b, words, s.workers)
				tsp.End()
				if s.cache.PublishSnapshot(key, words) {
					s.ws.words[l] = nil
				}
			}
		}
		s.ws.levels[l] = bitplane.LevelWords{Enc: enc, Words: words, B: b}
	}
	bitplane.Decode(s.ws.levels[:upTo+1], s.ws.dec.Plan().Runs(), work.Data(), s.workers, s.o, sp)
	return hits, built
}
