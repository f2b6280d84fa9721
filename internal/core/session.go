package core

import (
	"context"
	"fmt"
	"sync"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
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
	// store is the validating fetch path over the segment source (manifest
	// length check + lossless decompression), shared with the node-side
	// serving tier.
	store *PlaneStore
	// backend is the progressive codec named by the header; dec is its
	// zero-initialized decomposition the fetched planes decode into.
	backend codec.ProgressiveCodec
	dec     codec.Decomposition
	// cache, when non-nil, is consulted before store for decompressed planes;
	// shareID namespaces this session's planes within it.
	cache   *servecache.Cache
	shareID string
	// missSrc fills cache misses: the session's own store fetch, or — for the
	// shard router's sessions — the remote-node plane source that replaces it.
	missSrc servecache.Source
	// mu guards everything below it.
	mu sync.Mutex
	// fetched[l] is how many planes of level l have been read so far.
	fetched []int
	// planes[l][k] caches the decompressed plane bitsets.
	planes [][][]byte
	// bytes is the cumulative payload fetched, including payloads delivered
	// by reads that later failed to decode.
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

// NewSession opens a progressive retrieval session over a compressed field.
func NewSession(h *Header, src storage.SegmentSource) (*Session, error) {
	store, err := NewPlaneStore(h, src)
	if err != nil {
		return nil, err
	}
	backend, err := h.backend()
	if err != nil {
		return nil, err
	}
	dec, err := backend.NewZero(h.Dims, h.CodecOptions(), 0)
	if err != nil {
		return nil, err
	}
	planes := make([][][]byte, len(h.Levels))
	for l := range planes {
		planes[l] = make([][]byte, h.Planes)
	}
	return &Session{
		header:     h,
		store:      store,
		backend:    backend,
		dec:        dec,
		fetched:    make([]int, len(h.Levels)),
		planes:     planes,
		encScratch: make([]bitplane.LevelEncoding, len(h.Levels)),
	}, nil
}

// SharedSource couples a segment source with a shared decompressed-plane
// cache, the multi-session serving shape: N sessions over the same field
// share fetch and decompression work through the cache, and concurrent
// first readers of a plane coalesce onto a single store read (singleflight).
type SharedSource struct {
	// Src is the underlying segment source. Layer the cache *above* the
	// resilience stack: when Src is a storage.RetryingSource, the retry
	// loop and fault classification for a contended plane also run once
	// per flight instead of once per session.
	Src storage.SegmentSource
	// Cache is the shared plane cache.
	Cache *servecache.Cache
	// FieldID namespaces this field's planes in the cache. Empty derives
	// "<field>@<timestep>" from the header — sufficient unless two distinct
	// stores serve fields with colliding names and timesteps.
	FieldID string
	// Planes, when non-nil, replaces the Src fetch path entirely: cache
	// misses are filled by Planes instead of reading segments from Src (Src
	// may then be nil). This is the shard router's hook — its Planes
	// implementation fans cache misses out to remote node /planes endpoints,
	// and the cache's singleflight collapses concurrent sessions' misses
	// into one network fetch per plane.
	Planes servecache.Source
}

// NewSharedSession opens a progressive retrieval session whose fetch path
// consults ss.Cache before ss.Src. Per-session semantics are preserved
// exactly: Fetched and BytesFetched report the same values whether a plane
// came from the cache or the store, because cache entries replay the
// compressed payload size their original fetch moved.
func NewSharedSession(h *Header, ss SharedSource) (*Session, error) {
	if ss.Cache == nil {
		return nil, fmt.Errorf("core: shared session needs a cache")
	}
	s, err := NewSession(h, ss.Src)
	if err != nil {
		return nil, err
	}
	s.cache = ss.Cache
	s.shareID = ss.FieldID
	if s.shareID == "" {
		s.shareID = fmt.Sprintf("%s@%d", h.FieldName, h.Timestep)
	}
	s.missSrc = ss.Planes
	if s.missSrc == nil {
		s.missSrc = (*planeFetcher)(s)
	}
	return s, nil
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
	return s.reconstruct(ctx)
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

// fetchLevel extends level l's fetched plane prefix to want planes,
// advancing the session state plane by plane so a mid-level failure never
// desynchronizes fetched/planes/bytes. s.mu must be held.
//
// Failed fetches still count toward BytesFetched when payload was actually
// delivered: a segment that arrives but fails to decompress (corruption,
// truncation), or a partial payload returned alongside an error, moved real
// bytes off the store even though the plane was never decoded.
func (s *Session) fetchLevel(ctx context.Context, l, want int) error {
	if want <= s.fetched[l] {
		return nil
	}
	sp := obs.SpanFromContext(ctx).Child("session.fetch_level")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	sp.SetAttr("level", l)
	var levelBytes, levelHits int64
	planesFetched := 0
	defer func() {
		sp.SetAttr("planes", planesFetched)
		sp.SetAttr("bytes", levelBytes)
		sp.SetAttr("cache_hits", levelHits)
	}()
	for k := s.fetched[l]; k < want; k++ {
		raw, payload, hit, err := s.fetchPlane(ctx, l, k)
		if err != nil {
			s.bytes += payload
			levelBytes += payload
			s.o.Counter("core.session.bytes_wasted").Add(payload)
			sp.Fail(err)
			return err
		}
		s.planes[l][k] = raw
		s.bytes += payload
		s.fetched[l] = k + 1
		levelBytes += payload
		planesFetched++
		if hit {
			s.cacheHits++
			levelHits++
		}
		if s.o != nil {
			s.o.Counter(fmt.Sprintf("core.session.level%d.bytes_fetched", l)).Add(payload)
			s.o.Counter(fmt.Sprintf("core.session.level%d.planes_fetched", l)).Add(1)
			s.o.Counter("core.session.bytes_fetched").Add(payload)
			s.o.Counter("core.session.planes_fetched").Add(1)
		}
	}
	return nil
}

// fetchPlane materializes one decompressed plane, through the shared cache
// when the session has one. It returns the plane bitset, the compressed
// payload bytes the plane's fetch moved, and whether the plane came out of
// the shared cache without a fetch; on error the payload is the bytes a
// failed transfer still delivered (counted as wasted by the caller).
func (s *Session) fetchPlane(ctx context.Context, l, k int) ([]byte, int64, bool, error) {
	if s.cache == nil {
		raw, payload, err := s.fetchPlaneStore(ctx, l, k)
		return raw, payload, false, err
	}
	key := servecache.Key{Codec: s.header.Codec(), Field: s.shareID, Level: l, Plane: k}
	return s.cache.Get(ctx, key, s.missSrc)
}

// planeFetcher adapts a Session to servecache.Source: a pointer conversion
// instead of a per-call closure, which keeps the cache-hit fast path
// allocation-free.
type planeFetcher Session

// FetchPlane implements servecache.Source by reading and decompressing the
// keyed plane from the session's store; ctx is the cache's flight context,
// alive as long as any waiter still wants the plane.
func (p *planeFetcher) FetchPlane(ctx context.Context, key servecache.Key) ([]byte, int64, error) {
	return (*Session)(p).fetchPlaneStore(ctx, key.Level, key.Plane)
}

// fetchPlaneStore reads plane (l, k) through the session's PlaneStore,
// which validates the payload length against the manifest before the
// decoder sees it, and wraps the read in a session.fetch_plane span.
func (s *Session) fetchPlaneStore(ctx context.Context, l, k int) ([]byte, int64, error) {
	sp := obs.SpanFromContext(ctx).Child("session.fetch_plane")
	defer sp.End()
	sp.SetAttr("level", l)
	sp.SetAttr("plane", k)
	raw, payload, err := s.store.Fetch(ctx, l, k)
	sp.SetAttr("bytes", payload)
	if err != nil {
		sp.Fail(err)
	}
	return raw, payload, err
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
	rec, err := s.reconstruct(ctx)
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

// reconstruct decodes the fetched planes and recomposes the field. s.mu
// must be held.
func (s *Session) reconstruct(ctx context.Context) (*grid.Tensor, error) {
	parent := obs.SpanFromContext(ctx)
	dsp := parent.Child("session.decode")
	for l, lm := range s.header.Levels {
		enc := &s.encScratch[l]
		enc.N, enc.Planes, enc.Exponent, enc.Bits = lm.N, s.header.Planes, lm.Exponent, s.planes[l]
		s.backend.DecodeLevel(enc, s.fetched[l], s.dec.Coeffs(l), 1, s.o)
	}
	dsp.End()
	rsp := parent.Child("session.recompose")
	out := s.dec.Recompose()
	rsp.End()
	return out, nil
}
