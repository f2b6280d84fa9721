// Package pmgard is a Go implementation of the DNN-assisted progressive
// retrieval framework for HPC scientific data from Wang et al., "Improving
// Progressive Retrieval for HPC Scientific Data using Deep Neural Network"
// (ICDE 2023), together with every substrate it depends on: an MGARD-style
// error-bounded multilevel decomposer with nega-binary bit-plane encoding,
// a tiered-storage segment store, a from-scratch DNN stack, and the two
// prediction models the paper proposes (D-MGARD and E-MGARD).
//
// This root package is a thin facade over the internal packages so
// downstream code has one import. It plans only with bounds that hold:
// the learned models give estimates, not bounds, so they stay in the
// reproduction (cmd/train, cmd/bench -exp fig12|fig13|exp-hybrid).
//
//	field := ...                          // *pmgard.Tensor
//	c, _ := pmgard.Compress(field, pmgard.DefaultConfig(), "Jx", 0)
//	h := &c.Header
//	rec, plan, _ := pmgard.RetrieveTolerance(ctx, h, c, h.Bound(), tol, pmgard.RetrieveOptions{})
//
// See the examples/ directory for complete workflows and DESIGN.md for the
// system inventory and experiment index.
package pmgard

import (
	"context"

	"pmgard/internal/bufpool"
	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/dataset"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/retrieval"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// Tensor is a dense N-dimensional float64 field.
type Tensor = grid.Tensor

// NewTensor allocates a zero-filled field with the given dimensions.
func NewTensor(dims ...int) *Tensor { return grid.New(dims...) }

// TensorFromSlice wraps a flat row-major slice as a field without copying.
func TensorFromSlice(data []float64, dims ...int) *Tensor {
	return grid.FromSlice(data, dims...)
}

// Config configures the compression pipeline.
type Config = core.Config

// DecomposeOptions configures the multilevel transform.
type DecomposeOptions = codec.Options

// DefaultConfig mirrors the paper's setup: five coefficient levels, 32
// nega-binary bit-planes per level, DEFLATE for the lossless stage.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultBackend is the progressive-codec backend used when Config.Backend
// is empty: the MGARD-style multilevel lifting decomposition. Artifacts it
// produces stay byte-identical to pre-codec-interface pmgard output.
const DefaultBackend = codec.DefaultID

// Backends returns the registered progressive-codec backend IDs, sorted.
// Set Config.Backend to one of them to select how a field is refactored:
// "mgard" (lifting decomposition, the default) or "interp" (multilinear
// interpolation residuals, cheap and tight on smooth fields).
func Backends() []string { return codec.IDs() }

// ProbePoint is one tolerance of a backend probe: the smallest measured
// retrieval prefix that reaches the bound, and its cost.
type ProbePoint = core.ProbePoint

// ProbeResult is one backend's measured probe over a field.
type ProbeResult = core.ProbeResult

// ProbeComparison is a per-field backend comparison: which backend
// retrieves the field cheapest across the probed tolerances.
type ProbeComparison = core.ProbeComparison

// ProbeBackends compresses the field under each backend (nil = all
// registered) and measures the smallest retrieval prefix that reaches each
// relative bound (nil = DefaultProbeBounds). The Winner is the backend
// cmd/serve -raw would select for the field.
func ProbeBackends(t *Tensor, cfg Config, fieldName string, relBounds []float64, backends []string) (*ProbeComparison, error) {
	return core.ProbeBackends(t, cfg, fieldName, relBounds, backends)
}

// DefaultProbeBounds returns the relative error bounds a backend probe
// sweeps, loosest first.
func DefaultProbeBounds() []float64 { return core.DefaultProbeBounds() }

// Compressed is an in-memory compressed field.
type Compressed = core.Compressed

// Header is the retained compression metadata.
type Header = core.Header

// Plan is a retrieval decision with its byte cost.
type Plan = retrieval.Plan

// Bound is a per-level error-bound table the planner reads at plane
// counts: Header.Bound returns the exact per-level bound every read path
// plans with (Eq. 7 with constants that bound), Header.TheoryBound the
// theory bound (Eq. 6).
type Bound = retrieval.Bound

// SegmentSource yields compressed plane payloads during retrieval. A
// Compressed, an opened Store, and a RetryingSource over either all
// implement it.
type SegmentSource = storage.SegmentSource

// Store is an opened segment store — a .pmgd file or a tiered directory —
// with total and per-tier I/O accounting.
type Store = storage.Store

// RetrieveOptions carries a retrieval's worker count and telemetry sink; the
// zero value means one worker per CPU and no telemetry.
type RetrieveOptions = core.RetrieveOptions

// Compress runs decomposition, bit-plane encoding and lossless coding on a
// field.
func Compress(t *Tensor, cfg Config, fieldName string, timestep int) (*Compressed, error) {
	return core.Compress(t, cfg, fieldName, timestep)
}

// OpenFile opens a compressed field written by Compressed.WriteFile (a
// .pmgd file) or Compressed.WriteTiered (a directory); the layout follows
// from what path is.
func OpenFile(path string) (*Header, *Store, error) { return core.OpenFile(path) }

// Retrieve fetches the planes named by plan and recomposes the field. Once
// ctx ends no further plane is fetched and ctx's error is returned.
func Retrieve(ctx context.Context, h *Header, src SegmentSource, plan Plan, opt RetrieveOptions) (*Tensor, error) {
	return core.Retrieve(ctx, h, src, plan, opt)
}

// RetrieveTolerance plans the fewest stored bytes whose bound meets an
// absolute tolerance (the exact minimum-byte plan, retrieval.ExactPlan)
// and retrieves.
func RetrieveTolerance(ctx context.Context, h *Header, src SegmentSource, bound Bound, tol float64, opt RetrieveOptions) (*Tensor, Plan, error) {
	return core.RetrieveTolerance(ctx, h, src, bound, tol, opt)
}

// RetrievePlanes retrieves a fixed per-level plane assignment.
func RetrievePlanes(ctx context.Context, h *Header, src SegmentSource, planes []int, opt RetrieveOptions) (*Tensor, Plan, error) {
	return core.RetrievePlanes(ctx, h, src, planes, opt)
}

// MaxAbsDiff returns the L∞ distance between two fields.
func MaxAbsDiff(a, b *Tensor) float64 { return grid.MaxAbsDiff(a, b) }

// PSNR returns the peak signal-to-noise ratio of reconstruction b against
// original a, in dB.
func PSNR(a, b *Tensor) float64 { return grid.PSNR(a, b) }

// Obs bundles the optional observability facilities — a concurrency-safe
// metrics registry and a bounded span tracer — threaded through the
// pipeline via Config.Obs, TrainConfig fields and Session.Instrument.
// nil (the default everywhere) disables all telemetry and never changes
// any result; see DESIGN.md §8 for the metric names and trace schema.
type Obs = obs.Obs

// NewObs returns an Obs with a fresh metrics registry and tracer.
func NewObs() *Obs { return obs.New() }

// Session is a stateful progressive retrieval that fetches only deltas as
// the tolerance tightens (earlier reads are never wasted). Its Refine
// method fails soft on permanent data loss, returning a Degradation
// report instead of an error.
type Session = core.Session

// NewSession opens a progressive retrieval session over a compressed field.
func NewSession(h *Header, src SegmentSource) (*Session, error) {
	return core.NewSession(h, src)
}

// Degradation reports a degraded-mode refinement: the planes dropped as
// permanently unavailable and the error bound still achieved without them.
type Degradation = core.Degradation

// PlaneCache is a concurrency-safe, byte-budget LRU cache over decompressed
// plane bitsets with singleflight fetch deduplication — the sharing layer
// between concurrent sessions serving the same field.
type PlaneCache = servecache.Cache

// NewPlaneCache returns a cache bounded to budget decompressed bytes
// (budget ≤ 0 means unbounded).
func NewPlaneCache(budget int64) *PlaneCache { return servecache.New(budget, nil) }

// NewSharedSession opens a progressive session over src whose plane
// fetches go through a shared cache: concurrent sessions deduplicate store
// reads and decompression while keeping per-session Fetched/BytesFetched
// accounting identical to an uncached session's.
func NewSharedSession(h *Header, src SegmentSource, cache *PlaneCache) (*Session, error) {
	store, err := core.NewPlaneStore(h, src)
	if err != nil {
		return nil, err
	}
	return core.NewSharedSession(h, store, cache)
}

// BufferPoolStats is a point-in-time view over the shared buffer-pool
// counters (pooled-buffer hits, fresh allocations, returns) behind the
// pipeline's zero-allocation hot paths.
type BufferPoolStats = bufpool.Stats

// BufferPoolSnapshot returns the current shared buffer-pool counters.
func BufferPoolSnapshot() BufferPoolStats { return bufpool.Snapshot() }

// RetryPolicy bounds the retry loop of a RetryingSource.
type RetryPolicy = storage.RetryPolicy

// RetryingSource wraps any SegmentSource with per-read timeouts, bounded
// retries with exponential backoff, and quarantine of permanently failed
// planes.
type RetryingSource = storage.RetryingSource

// DefaultRetryPolicy returns the retry policy tuned for the default
// storage hierarchy.
func DefaultRetryPolicy() RetryPolicy { return storage.DefaultRetryPolicy() }

// NewRetryingSource wraps src with the retry/backoff/quarantine protocol;
// the ctx of each Segment call bounds its reads and backoff sleeps.
func NewRetryingSource(src SegmentSource, pol RetryPolicy) *RetryingSource {
	return storage.NewRetryingSource(src, pol, nil)
}

// Hierarchy models a tiered HPC storage system.
type Hierarchy = storage.Hierarchy

// DefaultHierarchy places levels across a four-tier NVMe/SSD/HDD/tape model.
func DefaultHierarchy(levels int) (Hierarchy, error) {
	return storage.DefaultHierarchy(levels)
}

// DatasetWriter builds a multi-field, multi-timestep compressed dataset
// directory with a JSON catalog.
type DatasetWriter = dataset.Writer

// DatasetReader serves progressive retrievals over a dataset directory
// under each entry's exact bound, with collection-wide I/O accounting.
type DatasetReader = dataset.Reader

// CreateDataset starts a new dataset at dir.
func CreateDataset(dir, name string, cfg Config) (*DatasetWriter, error) {
	return dataset.Create(dir, name, cfg)
}

// OpenDataset opens an existing dataset directory.
func OpenDataset(dir string) (*DatasetReader, error) { return dataset.Open(dir) }

// RetrieveResolution fetches only coefficient levels 0..upTo and
// reconstructs on the coarser grid they span — reduced degrees of freedom
// for analyses that can run at lower resolution.
func RetrieveResolution(ctx context.Context, h *Header, src SegmentSource, planes []int, upTo int, opt RetrieveOptions) (*Tensor, Plan, error) {
	return core.RetrieveResolution(ctx, h, src, planes, upTo, opt)
}
