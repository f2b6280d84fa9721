package core

import (
	"context"
	"fmt"
	"sync"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
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
	// backend is the progressive codec named by the header; dec is its
	// zero-initialized decomposition the fetched planes decode into.
	backend codec.ProgressiveCodec
	dec     codec.Decomposition
	// workers is the fan-out of a refinement's plane fetches and of the
	// level decode; 1 fetches each level's planes as one run on the caller's
	// goroutine.
	workers int
	// mu guards everything below it.
	mu sync.Mutex
	// fetched[l] is how many planes of level l have been read so far.
	fetched []int
	// planes[l][k] caches the decompressed plane bitsets.
	planes [][][]byte
	// bytes is the cumulative payload fetched, including payloads delivered
	// by reads that later failed to decode or were discarded above a failed
	// plane.
	bytes int64
	// cacheHits counts planes this session obtained from the shared cache
	// without a store fetch (always 0 without a cache).
	cacheHits int64
	// encScratch holds one reusable LevelEncoding shell per level, so
	// reconstruct does not allocate encoding headers on every refinement.
	encScratch []bitplane.LevelEncoding
	// o records session telemetry when set via Instrument; nil disables it.
	o *obs.Obs
}

// Instrument records session telemetry — per-level bytes/planes fetched,
// wasted fetch bytes, refinement spans, degraded-mode counters — into o.
// Call before the first RefineTo/Refine; a nil o (the default) disables
// all of it.
func (s *Session) Instrument(o *obs.Obs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.o = o
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
	dec, err := backend.NewZero(h.Dims, h.CodecOptions(), recomposeWorkers)
	if err != nil {
		return nil, err
	}
	planes := make([][][]byte, len(h.Levels))
	for l := range planes {
		planes[l] = make([][]byte, h.Planes)
	}
	return &Session{
		header:     h,
		src:        src,
		cache:      cache,
		run:        h.PlaneRun(0, nil),
		backend:    backend,
		dec:        dec,
		workers:    workers,
		fetched:    make([]int, len(h.Levels)),
		planes:     planes,
		encScratch: make([]bitplane.LevelEncoding, len(h.Levels)),
	}, nil
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
	// AchievedBound is the estimator's error bound at the decoded plane
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
// worker, read and inflated in parallel into pre-sized slots. The session
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
	planes := make([]int, want-have)
	for i := range planes {
		planes[i] = have + i
	}
	slots := make([]servecache.Plane, len(planes))
	var m *pool.Metrics
	if s.workers > 1 {
		m = pool.NewMetrics(s.o, "fetch")
	}
	pool.RunChunks(len(planes), s.workers, m, func(_, lo, hi int) error {
		run := s.run
		run.Level, run.Planes = l, planes[lo:hi]
		copy(slots[lo:hi], s.cache.Get(ctx, run, s.src))
		return nil
	})
	var err error
	var levelBytes, keptBytes, levelHits int64
	for i := range slots {
		sl := &slots[i]
		if err == nil {
			err = sl.Err
		}
		// Only the contiguous prefix of landed planes extends the session.
		if err == nil {
			s.planes[l][have+i] = sl.Raw
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
		s.o.Counter(fmt.Sprintf("core.session.level%d.bytes_fetched", l)).Add(keptBytes)
		s.o.Counter(fmt.Sprintf("core.session.level%d.planes_fetched", l)).Add(int64(kept))
		s.o.Counter("core.session.bytes_fetched").Add(keptBytes)
		s.o.Counter("core.session.planes_fetched").Add(int64(kept))
	}
	if err != nil {
		s.o.Counter("core.session.bytes_wasted").Add(levelBytes - keptBytes)
		sp.Fail(err)
	}
	return err
}

// Refine plans greedily under est at an absolute tolerance, never dropping
// below the already-fetched planes, fetches the delta and reconstructs.
// It returns the reconstruction and the plan actually executed.
//
// Refine fails soft on data loss: when a plane is permanently unavailable
// (the read error classifies as storage.FaultPermanent — a quarantined
// plane, a missing level file, a checksum mismatch), the affected level
// falls back to its deepest consistent plane prefix, the achievable error
// bound is recomputed from the per-level Err matrices, and the
// reconstruction is returned together with a non-nil Degradation report
// instead of an error. Transient failures (including retry exhaustion in
// a storage.RetryingSource) still abort with an error, with the session
// state left consistent for a later retry. So does ctx ending — the
// caller's deadline expiring, the client disconnecting: it aborts with
// ctx's error (it never degrades: only permanent data loss does), and the
// session remains consistent and resumable.
func (s *Session) Refine(ctx context.Context, est retrieval.ErrorEstimator, tol float64) (*grid.Tensor, retrieval.Plan, *Degradation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.startSpan(ctx, "session.refine")
	sp.SetAttr("tol", tol)
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	plan, err := greedyPlan(s.header, est, tol, s.o)
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
		return nil, retrieval.Plan{}, nil, err
	}
	levelErrs := make([]float64, len(s.header.Levels))
	for l, lm := range s.header.Levels {
		levelErrs[l] = lm.ErrMatrix[target[l]]
	}
	exec.EstimatedError = est.Estimate(levelErrs)
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

// reconstruct decodes the fetched planes of levels 0..upTo and recomposes
// the grid they span — the full field when upTo is the finest level. s.mu
// must be held.
func (s *Session) reconstruct(ctx context.Context, upTo int) (*grid.Tensor, error) {
	parent := obs.SpanFromContext(ctx)
	dsp := parent.Child("session.decode")
	for l, lm := range s.header.Levels[:upTo+1] {
		enc := &s.encScratch[l]
		enc.N, enc.Planes, enc.Exponent, enc.Bits = lm.N, s.header.Planes, lm.Exponent, s.planes[l]
		s.backend.DecodeLevel(enc, s.fetched[l], s.dec.Coeffs(l), s.workers, s.o)
	}
	dsp.End()
	rsp := parent.Child("session.recompose")
	defer rsp.End()
	if upTo < len(s.header.Levels)-1 {
		return s.dec.RecomposeLevel(upTo)
	}
	return s.dec.Recompose(), nil
}
