// Package core is the public face of the progressive retrieval framework
// (Fig. 4 of the paper). It wires together the substrates:
//
//	codec      → pluggable refactor/recompose backends (mgard, interp)
//	bitplane   → nega-binary planes + error matrix
//	lossless   → per-plane compressed segments
//	storage    → tiered, ranged-read segment files
//	retrieval  → error-controlled plane selection
//
// and exposes three retrieval modes: the original theory-based error
// control, D-MGARD plane-count prediction, and E-MGARD learned per-level
// error estimation (the latter two live in internal/dmgard and
// internal/emgard and plug in through the retrieval.ErrorEstimator and
// fixed-plane interfaces defined here).
//
// The multilevel transform is dispatched through the codec registry: the
// Config.Backend / Header.CodecID codec ID selects which ProgressiveCodec
// refactors a field and recomposes its retrievals. The zero value selects
// the MGARD-style backend, whose artifacts (headers, segments, manifests)
// are byte-identical to the pre-interface pipeline's.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"pmgard/internal/codec"
	"pmgard/internal/decompose"
	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/obs"
	"pmgard/internal/pool"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"

	// The in-tree backends register themselves with the codec registry;
	// core links them so every entry point (library, commands, tests) sees
	// the same backend set.
	_ "pmgard/internal/codec/interp"
	_ "pmgard/internal/codec/mgard"
)

// Config configures compression.
type Config struct {
	// Backend is the progressive-codec ID ("mgard", "interp"); empty
	// selects codec.DefaultID, the MGARD-style pipeline.
	Backend string
	// Decompose controls the multilevel transform.
	Decompose decompose.Options
	// Planes is the number of bit-planes per coefficient level (the paper
	// uses 32).
	Planes int
	// Codec is the lossless stage; nil means DEFLATE.
	Codec lossless.Codec
	// PoolSize is the length of the per-level pooled coefficient summary
	// stored in the header for E-MGARD's encoder input (§III-D). 0 uses
	// the default of 64.
	PoolSize int
	// Parallelism is the worker count used by every stage of the pipeline
	// (decomposition passes, bit-plane encoding, lossless coding). 0 (the
	// default) uses one worker per CPU; 1 forces the sequential path. The
	// produced bytes are identical for every value — fan-out writes into
	// pre-sized (level, plane) slots, never appends.
	Parallelism int
	// Obs records pipeline telemetry (metrics and spans) when set. nil (the
	// default) disables observability at the cost of one nil check per
	// instrumented operation; it never changes the produced bytes.
	Obs *obs.Obs
}

// DefaultConfig mirrors the paper's setup: a five-level hierarchy with 32
// bit-planes per level and lossless coding of each plane.
func DefaultConfig() Config {
	return Config{
		Decompose: decompose.DefaultOptions(),
		Planes:    32,
		Codec:     lossless.Deflate(),
	}
}

func (c Config) withDefaults() Config {
	if c.Codec == nil {
		c.Codec = lossless.Deflate()
	}
	if c.Planes == 0 {
		c.Planes = 32
	}
	if c.PoolSize == 0 {
		c.PoolSize = 64
	}
	return c
}

// LevelMeta is the retained per-level metadata: everything the retriever
// needs without touching the payload segments.
type LevelMeta struct {
	// N is the number of coefficients on the level.
	N int
	// Exponent is the bit-plane alignment exponent.
	Exponent int
	// ErrMatrix[b] is the max abs coefficient error with b planes.
	ErrMatrix []float64
	// PlaneSizes[k] is the compressed size of plane k in bytes.
	PlaneSizes []int64
	// RawPlaneSize is the uncompressed size of each plane in bytes.
	RawPlaneSize int
}

// Header is the compression metadata written alongside the segments.
type Header struct {
	// CodecID names the progressive-codec backend that produced the
	// artifact. It is omitted (empty) for the default MGARD backend so
	// pre-interface files parse identically and mgard artifacts stay
	// byte-identical; Codec() resolves the effective ID.
	CodecID string `json:",omitempty"`
	// FieldName labels the variable ("Jx", "Du", ...).
	FieldName string
	// Timestep is the simulation output step the field came from.
	Timestep int
	// Dims are the grid dimensions.
	Dims []int
	// Levels is the per-level metadata, coarsest first.
	Levels []LevelMeta
	// Planes is the bit-plane count per level.
	Planes int
	// CodecName names the lossless codec.
	CodecName string
	// DecomposeLevels, Update and UpdateWeight echo the transform options.
	DecomposeLevels int
	Update          bool
	UpdateWeight    float64
	// ValueRange is max-min of the original field, used to convert
	// relative error bounds to absolute tolerances.
	ValueRange float64
	// LevelPools[l] is a fixed-size pooled summary of level l's
	// coefficient magnitudes, recorded at compression time so E-MGARD can
	// predict per-level mapping constants without fetching any payload.
	LevelPools [][]float64
}

// DecomposeOptions reconstructs the transform options from the header.
func (h *Header) DecomposeOptions() decompose.Options {
	return decompose.Options{
		Levels:       h.DecomposeLevels,
		Update:       h.Update,
		UpdateWeight: h.UpdateWeight,
	}
}

// Codec returns the effective progressive-codec ID of the artifact; an
// empty CodecID means the default MGARD backend.
func (h *Header) Codec() string {
	if h.CodecID == "" {
		return codec.DefaultID
	}
	return h.CodecID
}

// CodecOptions reconstructs the backend-agnostic transform options from the
// header.
func (h *Header) CodecOptions() codec.Options {
	return codec.Options{
		Levels:       h.DecomposeLevels,
		Update:       h.Update,
		UpdateWeight: h.UpdateWeight,
	}
}

// backend resolves the header's progressive-codec backend.
func (h *Header) backend() (codec.ProgressiveCodec, error) {
	c, err := codec.ByID(h.Codec())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return c, nil
}

// codecOptions converts compression config into the backend-agnostic
// transform options.
func codecOptions(o decompose.Options) codec.Options {
	return codec.Options{Levels: o.Levels, Update: o.Update, UpdateWeight: o.UpdateWeight}
}

// LevelInfos adapts the header for the retrieval planner.
func (h *Header) LevelInfos() []retrieval.LevelInfo {
	infos := make([]retrieval.LevelInfo, len(h.Levels))
	for l, lm := range h.Levels {
		infos[l] = retrieval.LevelInfo{ErrMatrix: lm.ErrMatrix, PlaneSizes: lm.PlaneSizes}
	}
	return infos
}

// TheoryEstimator returns the original MGARD error estimator (Eq. 6): the
// absolute-row-sum bound with the naive compounded mesh constant of the
// early error-control theory [19]. Its pessimism — achieved errors orders
// of magnitude below the requested bound — is the overhead the paper's
// models remove.
func (h *Header) TheoryEstimator() retrieval.TheoryEstimator {
	b, err := h.backend()
	if err != nil {
		// An unknown backend cannot be decoded anyway; fall back to the
		// lifting math so the estimator itself never fails.
		return retrieval.TheoryEstimator{C: h.DecomposeOptions().NaiveErrorAmplification(len(h.Dims))}
	}
	return retrieval.TheoryEstimator{C: b.NaiveAmplification(h.CodecOptions(), len(h.Dims))}
}

// TightEstimator returns the sharper analytical bound (per-level
// amplification without cross-step compounding) — still a true bound, used
// by the constant ablation to separate "better constant" gains from
// "learned per-level constants" gains.
func (h *Header) TightEstimator() retrieval.TheoryEstimator {
	b, err := h.backend()
	if err != nil {
		return retrieval.TheoryEstimator{C: h.DecomposeOptions().ErrorAmplification(len(h.Dims))}
	}
	return retrieval.TheoryEstimator{C: b.TightAmplification(h.CodecOptions(), len(h.Dims))}
}

// AbsTolerance converts a relative error bound to an absolute tolerance
// using the recorded value range, the convention of the paper's evaluation
// (§IV-A3).
func (h *Header) AbsTolerance(relBound float64) float64 {
	return relBound * h.ValueRange
}

// TotalBytes returns the total stored payload size across all levels and
// planes.
func (h *Header) TotalBytes() int64 {
	var total int64
	for _, lm := range h.Levels {
		for _, s := range lm.PlaneSizes {
			total += s
		}
	}
	return total
}

// Compressed is an in-memory compressed field: header plus the compressed
// plane segments.
type Compressed struct {
	Header Header
	// segments[l][k] is the compressed payload of plane k of level l.
	segments [][][]byte
}

// Compress runs the full compression pipeline on a field, fanning each
// stage across cfg.Parallelism workers. The output is byte-identical for
// every worker count.
//
// Compress is the in-memory façade over the streaming pipeline: it drives
// CompressTo into a memory sink, so the stage overlap (deflate of level
// l's planes while level l+1 encodes) applies here too. For artifacts that
// go to disk anyway, CompressToFile and CompressToTiered skip the
// in-memory accumulation entirely.
func Compress(t *grid.Tensor, cfg Config, fieldName string, timestep int) (*Compressed, error) {
	cfg = cfg.withDefaults()
	sink := &memorySink{planes: cfg.Planes}
	h, err := CompressTo(t, cfg, fieldName, timestep, sink)
	if err != nil {
		return nil, err
	}
	return &Compressed{Header: *h, segments: sink.segments}, nil
}

// Segment implements storage.SegmentSource for in-memory compressed data;
// the read is instantaneous, so ctx is only checked at entry.
func (c *Compressed) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if level < 0 || level >= len(c.segments) {
		return nil, fmt.Errorf("core: level %d out of range", level)
	}
	if plane < 0 || plane >= len(c.segments[level]) {
		return nil, fmt.Errorf("core: plane %d out of range on level %d", plane, level)
	}
	return c.segments[level][plane], nil
}

// replay feeds the in-memory segments to sink in (level, plane) order — the
// order CompressTo produced them in — and returns the header they belong
// to.
func (c *Compressed) replay(sink SegmentSink) (*Header, error) {
	for l := range c.segments {
		for k, seg := range c.segments[l] {
			if err := sink.WriteSegment(storage.SegmentID{Level: l, Plane: k}, seg); err != nil {
				return nil, err
			}
		}
	}
	return &c.Header, nil
}

// WriteFile persists the compressed field as a segment-store file, through
// the same streaming writer CompressToFile uses: the file appears at path
// only once complete.
func (c *Compressed) WriteFile(path string) error {
	_, err := streamToFile(path, c.replay)
	return err
}

// WriteTiered persists the compressed field across a storage hierarchy:
// each coefficient level's plane segments land in the directory of the tier
// the hierarchy assigns it to (§II-A — hot coarse levels on fast tiers,
// cold fine levels on slow ones), through the same streaming writer
// CompressToTiered uses.
func (c *Compressed) WriteTiered(dir string, h storage.Hierarchy) error {
	_, err := streamToDir(dir, h, c.replay)
	return err
}

// OpenFile opens a compressed field — a file written by WriteFile or a
// directory written by WriteTiered — and parses its header. The returned
// store is itself the storage.SegmentSource to retrieve from.
func OpenFile(path string) (*Header, *storage.Store, error) {
	st, err := storage.Open(path)
	if err != nil {
		return nil, nil, err
	}
	h, err := ParseHeader(st.Meta())
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return h, st, nil
}

// ParseHeader decodes an artifact header — a store's metadata blob or a
// shard node's /planes/header document — and refuses one whose shape no
// compressor writes, before any reader sizes a buffer from it: Planes
// outside [1,60], a level whose PlaneSizes or ErrMatrix length disagrees
// with Planes, a negative count or size, or a RawPlaneSize other than
// (N+7)/8. The error wraps storage.ErrCorrupt and names the level.
func ParseHeader(meta []byte) (*Header, error) {
	var h Header
	if err := json.Unmarshal(meta, &h); err != nil {
		return nil, fmt.Errorf("core: parse header: %w: %w", err, storage.ErrCorrupt)
	}
	if h.Planes < 1 || h.Planes > 60 {
		return nil, fmt.Errorf("core: header has %d planes, want [1,60]: %w", h.Planes, storage.ErrCorrupt)
	}
	for l, lm := range h.Levels {
		var bad string
		switch {
		case len(lm.PlaneSizes) != h.Planes:
			bad = fmt.Sprintf("%d plane sizes for %d planes", len(lm.PlaneSizes), h.Planes)
		case len(lm.ErrMatrix) != h.Planes+1:
			bad = fmt.Sprintf("%d error-matrix entries for %d planes", len(lm.ErrMatrix), h.Planes)
		case lm.N < 0:
			bad = fmt.Sprintf("%d coefficients", lm.N)
		case lm.RawPlaneSize != (lm.N+7)/8:
			bad = fmt.Sprintf("raw plane size %d for %d coefficients, want %d", lm.RawPlaneSize, lm.N, (lm.N+7)/8)
		}
		for k, s := range lm.PlaneSizes {
			if s < 0 && bad == "" {
				bad = fmt.Sprintf("plane %d size %d", k, s)
				break
			}
		}
		if bad != "" {
			return nil, fmt.Errorf("core: header level %d: %s: %w", l, bad, storage.ErrCorrupt)
		}
	}
	return &h, nil
}

// RetrieveOptions carries what every retrieval call may tune besides its
// inputs. The zero value — one worker per CPU, no telemetry — is the
// default.
type RetrieveOptions struct {
	// Workers is the worker count of the fetch, decompress, decode and
	// recompose stages (≤ 0 means one worker per CPU; 1 forces the
	// sequential path). The reconstruction is bit-identical for every value.
	Workers int
	// Obs records retrieval telemetry when set — the session vocabulary
	// (DESIGN.md §8): a "session.refine_to" root span over fetch_level /
	// fetch_plane / decode / recompose children, the planner's
	// "retrieval.plan", per-level core.session.* counters and, with more
	// than one worker, pool.fetch.* task metrics. It never changes the
	// reconstruction.
	Obs *obs.Obs
}

// Retrieve fetches the planes named by plan from src, decodes them and
// recomposes the approximate field. Once ctx ends, no further plane is
// fetched and the retrieval returns ctx's error; planes already decoded are
// discarded — for resumable cancellation use a Session.
func Retrieve(ctx context.Context, h *Header, src storage.SegmentSource, plan retrieval.Plan, opt RetrieveOptions) (*grid.Tensor, error) {
	return retrieve(ctx, h, src, plan.Planes, len(h.Levels)-1, opt)
}

// retrieve is the one-shot read behind every Retrieve* call: a fresh
// session over src, refined once to planes and recomposed over levels
// 0..upTo. It goes through RefineTo, never Refine, so a permanently lost
// plane is an error here — only a caller holding a Session can degrade.
func retrieve(ctx context.Context, h *Header, src storage.SegmentSource, planes []int, upTo int, opt RetrieveOptions) (*grid.Tensor, error) {
	store, err := NewPlaneStore(h, src)
	if err != nil {
		return nil, err
	}
	workers := pool.Clamp(opt.Workers)
	s, err := newSession(h, store, nil, workers, workers)
	if err != nil {
		return nil, err
	}
	s.Instrument(opt.Obs)
	return s.refineTo(ctx, planes, upTo)
}

// countingEstimator wraps an ErrorEstimator and counts Estimate calls, the
// planner's unit of search work.
type countingEstimator struct {
	est retrieval.ErrorEstimator
	n   int64
}

// Estimate implements retrieval.ErrorEstimator.
func (c *countingEstimator) Estimate(levelErrs []float64) float64 {
	c.n++
	return c.est.Estimate(levelErrs)
}

// greedyPlan is retrieval.GreedyPlan over the header's levels with planner
// telemetry recorded into o when set:
//
//	retrieval.greedy.plans           counter — planner invocations
//	retrieval.greedy.estimator_calls counter — estimator iterations walked
//	retrieval.plan span              — one per invocation, attrs tol/bytes
func greedyPlan(h *Header, est retrieval.ErrorEstimator, tol float64, o *obs.Obs) (retrieval.Plan, error) {
	if o == nil {
		return retrieval.GreedyPlan(h.LevelInfos(), est, tol)
	}
	sp := o.Span("retrieval.plan", nil)
	sp.SetAttr("tol", tol)
	counting := &countingEstimator{est: est}
	plan, err := retrieval.GreedyPlan(h.LevelInfos(), counting, tol)
	o.Counter("retrieval.greedy.plans").Add(1)
	o.Counter("retrieval.greedy.estimator_calls").Add(counting.n)
	if err == nil {
		sp.SetAttr("bytes", plan.Bytes)
	}
	sp.End()
	return plan, err
}

// RetrieveTolerance plans with the given estimator at an absolute tolerance
// and retrieves. It returns the reconstruction and the executed plan.
func RetrieveTolerance(ctx context.Context, h *Header, src storage.SegmentSource, est retrieval.ErrorEstimator, tol float64, opt RetrieveOptions) (*grid.Tensor, retrieval.Plan, error) {
	plan, err := greedyPlan(h, est, tol, opt.Obs)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	rec, err := Retrieve(ctx, h, src, plan, opt)
	return rec, plan, err
}

// RetrievePlanes retrieves with an externally supplied per-level plane
// assignment — the D-MGARD integration point.
func RetrievePlanes(ctx context.Context, h *Header, src storage.SegmentSource, planes []int, opt RetrieveOptions) (*grid.Tensor, retrieval.Plan, error) {
	plan, err := retrieval.PlanForPlanes(h.LevelInfos(), planes)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	rec, err := Retrieve(ctx, h, src, plan, opt)
	return rec, plan, err
}

// RetrieveResolution fetches only coefficient levels 0..upTo and
// reconstructs the approximation on the coarser grid those levels span —
// the reduced-degrees-of-freedom mode where an analysis skips both the I/O
// and the compute of the finer levels. planes must assign 0 planes to every
// level above upTo.
func RetrieveResolution(ctx context.Context, h *Header, src storage.SegmentSource, planes []int, upTo int, opt RetrieveOptions) (*grid.Tensor, retrieval.Plan, error) {
	if upTo < 0 || upTo >= len(h.Levels) {
		return nil, retrieval.Plan{}, fmt.Errorf("core: upTo %d out of [0,%d)", upTo, len(h.Levels))
	}
	for l := upTo + 1; l < len(planes); l++ {
		if planes[l] != 0 {
			return nil, retrieval.Plan{}, fmt.Errorf("core: level %d above resolution cut must have 0 planes", l)
		}
	}
	plan, err := retrieval.PlanForPlanes(h.LevelInfos(), planes)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	rec, err := retrieve(ctx, h, src, plan.Planes, upTo, opt)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	return rec, plan, nil
}

// RetrieveHybrid combines the two models as the paper's future work
// sketches (§IV-E): a D-MGARD plane prediction seeds the plan and an
// (E-MGARD) error estimator verifies and refines it — extending while the
// estimate misses the tolerance, never shedding a seeded plane.
func RetrieveHybrid(ctx context.Context, h *Header, src storage.SegmentSource, seedPlanes []int, est retrieval.ErrorEstimator, tol float64, opt RetrieveOptions) (*grid.Tensor, retrieval.Plan, error) {
	// Extend-only: the learned estimator is calibrated on greedy-shaped
	// plans, so estimates for shrunk plan shapes are
	// unreliable and shedding planes re-introduces bound violations. The
	// hybrid's job is to repair D-MGARD's under-predictions — the
	// dangerous direction — not to squeeze bytes below E-MGARD.
	plan, err := retrieval.RefinePlan(h.LevelInfos(), seedPlanes, est, tol)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	rec, err := Retrieve(ctx, h, src, plan, opt)
	return rec, plan, err
}

// CompressAll compresses several named fields concurrently — the write-side
// pattern of a simulation dump, where every variable of a timestep is
// compressed before the next step runs. workers ≤ 0 uses GOMAXPROCS. When
// several fields fail, the error of the alphabetically first one is
// returned, whatever the scheduling.
func CompressAll(fields map[string]*grid.Tensor, cfg Config, timestep int, workers int) (map[string]*Compressed, error) {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	sort.Strings(names)
	results := make([]*Compressed, len(names))
	err := pool.Run(context.Background(), len(names), workers, nil, func(_, i int) error {
		c, err := Compress(fields[names[i]], cfg, names[i], timestep)
		if err != nil {
			return fmt.Errorf("core: compress %s: %w", names[i], err)
		}
		results[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*Compressed, len(names))
	for i, name := range names {
		out[name] = results[i]
	}
	return out, nil
}
