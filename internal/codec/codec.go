// Package codec defines the pluggable progressive-codec contract behind the
// retrieval pipeline (ROADMAP item 3). A ProgressiveCodec owns the two
// transforms that differ between progressive compression schemes — how a
// field is refactored into multilevel coefficient streams, and how decoded
// streams are recomposed into a field — plus the per-plane progressive
// encode/decode of those streams and the error-amplification constants that
// map per-level coefficient errors Err[l][b] to a reconstruction bound.
//
// Everything else in the pipeline is backend-agnostic and stays in
// internal/core: the lossless stage, the segment store layout, the greedy
// planner, sessions, and the serving tier all operate on (level, plane)
// segments plus the Err matrix, whichever backend produced them. A new
// backend therefore plugs in by implementing this interface and registering
// itself; it inherits serialization (core.Header with a CodecID tag),
// tiered storage, caching, retry/breaker resilience, and the serving API
// for free — and must pass the conformance suite in codectest.
//
// Two backends ship in-tree:
//
//   - "mgard" (internal/codec/mgard): the paper's MGARD-style lifting
//     decomposition with the optional L2 update step, wrapped unchanged
//     from internal/decompose. Its artifacts are byte-identical to the
//     pre-interface pipeline.
//   - "interp" (internal/codec/interp): an IPComp/SZ3-style open-loop
//     multilinear-interpolation predictor hierarchy (arXiv:2502.04093),
//     whose per-level error amplification constant is exactly 1.
package codec

import (
	"fmt"
	"sort"
	"sync"

	"pmgard/internal/bitplane"
	"pmgard/internal/grid"
	"pmgard/internal/interleave"
	"pmgard/internal/obs"
)

// DefaultID is the codec every pre-interface artifact was produced by; a
// header without an explicit CodecID belongs to it.
const DefaultID = "mgard"

// Options configures a backend's multilevel transform — the one options
// type of the pipeline: core.Config carries it, the header records its
// fields, and every backend (and internal/decompose) takes it. Backends
// ignore fields that do not apply to them (the interpolation backend
// ignores the lifting update), so options roundtripped through a header
// never fail retroactively.
type Options struct {
	// Levels is the number of coefficient levels L (≥ 1); level 0 is the
	// coarsest. A lifting transform performs L-1 refinement steps.
	Levels int
	// Update enables the MGARD backend's L2-projection-like lifting update
	// step. Interpolation-style backends ignore it.
	Update bool
	// UpdateWeight is the lifting update weight (mgard only); 0.25
	// reproduces the standard linear-wavelet update. Ignored when Update is
	// false.
	UpdateWeight float64
}

// Decomposition is one field's multilevel coefficient representation: the
// writable per-level streams a partial decode fills, and the recomposition
// that turns them back into a spatial field. Implementations are produced
// by a ProgressiveCodec and are not safe for concurrent mutation.
type Decomposition interface {
	// Levels returns the number of coefficient levels L.
	Levels() int
	// Plan returns the interleave plan that places the coefficients on the
	// grid: its run schedule (Plan().Runs()) puts level l's i-th coefficient
	// at node Off+(i−First)·Stride of the level's run whose entries
	// First…First+Count−1 hold i.
	Plan() *interleave.Plan
	// Coeffs returns the level-l coefficient stream. The slice is the
	// decomposition's own storage: mutating it changes what Recompose
	// reconstructs (this is how truncated retrieval is modelled).
	Coeffs(l int) []float64
	// Recompose reconstructs the spatial field from the current streams:
	// it places every level's stream at its nodes of a new grid and calls
	// RecomposeInto (see RecomposeStreams).
	Recompose() *grid.Tensor
	// RecomposeInto is the one recomposition, for the full grid and for
	// every coarser one: it reconstructs, in place, the approximation
	// spanned by levels 0..upTo from work, a tensor of the full grid's
	// shape whose nodes of levels 0..upTo (Plan) already hold those
	// levels' coefficients. Its other nodes are undefined on entry and
	// never read, and the streams are not read at all, so a caller that
	// decodes straight to the nodes needs none. At upTo = Levels-1 the
	// field is reconstructed in work and work itself is returned; a
	// coarser upTo returns the ceil(n/2^s)-per-axis sub-grid (s =
	// Levels-1-upTo) those levels span — the reduced degrees-of-freedom
	// retrieval mode — as a new tensor and leaves work as scratch.
	RecomposeInto(upTo int, work *grid.Tensor) (*grid.Tensor, error)
}

// RecomposeStreams is the Recompose every backend shares: it places each
// level's stream at its nodes of a new full grid and recomposes that grid
// in place.
func RecomposeStreams(d Decomposition) *grid.Tensor {
	p := d.Plan()
	work := grid.New(p.Dims()...)
	for l := 0; l < d.Levels(); l++ {
		p.Inject(work.Data(), l, d.Coeffs(l))
	}
	out, _ := d.RecomposeInto(d.Levels()-1, work)
	return out
}

// ProgressiveCodec is the pluggable backend contract: refactor, per-plane
// progressive encode, partial decode, and the error-control constants. All
// methods must be deterministic — bit-identical output for every worker
// count — and safe for concurrent use.
type ProgressiveCodec interface {
	// ID returns the stable backend identifier recorded in headers and
	// cache keys ("mgard", "interp").
	ID() string
	// Decompose refactors a field into multilevel coefficient streams,
	// fanning independent work across at most `workers` goroutines (≤ 0
	// means GOMAXPROCS) and recording telemetry into o when non-nil.
	Decompose(t *grid.Tensor, opts Options, workers int, o *obs.Obs) (Decomposition, error)
	// NewZero returns an all-zero decomposition for the given grid shape —
	// the starting point when reassembling a partial retrieval. A level's
	// stream may be allocated on its first Coeffs call, so a caller that
	// only recomposes in place (RecomposeInto) never pays for the streams.
	NewZero(dims []int, opts Options, workers int) (Decomposition, error)
	// EncodeLevel slices one coefficient stream into `planes` progressive
	// bit-planes and collects the error matrix Err[b] = max abs coefficient
	// error with only the first b planes (len planes+1).
	EncodeLevel(coeffs []float64, planes, workers int, o *obs.Obs) (*bitplane.LevelEncoding, error)
	// DecodeLevel reconstructs a coefficient stream from the first b planes
	// of enc into dst, overwriting every element of dst — for every b,
	// including 0 — so dst may hold anything on entry.
	DecodeLevel(enc *bitplane.LevelEncoding, b int, dst []float64, workers int, o *obs.Obs)
	// NaiveAmplification returns the conservative constant C such that a
	// reconstruction from streams perturbed by at most Err_l per level is
	// perturbed by at most C·Σ_l Err_l in the max norm — the bound the
	// original error-control theory would use (the paper's Eq. 6).
	NaiveAmplification(opts Options, rank int) float64
}

// BitplaneCoder provides the shared per-plane progressive encode/decode
// implementation — nega-binary bit-plane slicing with the error matrix
// from internal/bitplane. Backends embed it so their coefficient
// streams all serialize to the same (level, plane) segment shape, which is
// what keeps storage, caching and the planner backend-agnostic.
type BitplaneCoder struct{}

// EncodeLevel implements ProgressiveCodec.EncodeLevel via the word-parallel
// nega-binary kernels.
func (BitplaneCoder) EncodeLevel(coeffs []float64, planes, workers int, o *obs.Obs) (*bitplane.LevelEncoding, error) {
	return bitplane.EncodeLevel(coeffs, planes, workers, o)
}

// DecodeLevel implements ProgressiveCodec.DecodeLevel with the primitives a
// request runs: the first b planes are transposed into words, which
// bitplane.Decode writes to dst in coefficient order — one stride-1 run.
func (BitplaneCoder) DecodeLevel(enc *bitplane.LevelEncoding, b int, dst []float64, workers int, o *obs.Obs) {
	if len(dst) != enc.N {
		panic(fmt.Sprintf("codec: DecodeLevel into %d values, want %d", len(dst), enc.N))
	}
	var w bitplane.Words
	if b > 0 {
		enc.TransposeWords(b, &w, workers)
	}
	levels := []bitplane.LevelWords{{Enc: enc, Words: &w, B: b}}
	bitplane.Decode(levels, []interleave.Run{{Count: enc.N, Stride: 1}}, dst, workers, o, nil)
}

// registry holds the process-wide backend set; backends self-register from
// init, so lookups after package initialization need only a read lock.
var registry = struct {
	sync.RWMutex
	byID map[string]ProgressiveCodec
}{byID: map[string]ProgressiveCodec{}}

// Register adds a backend to the process-wide registry. It panics on a
// duplicate or empty ID — backend identity is part of the on-disk format,
// so a collision is a programming error, not a runtime condition.
func Register(c ProgressiveCodec) {
	id := c.ID()
	if id == "" {
		panic("codec: Register with empty ID")
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byID[id]; dup {
		panic(fmt.Sprintf("codec: duplicate backend %q", id))
	}
	registry.byID[id] = c
}

// ByID resolves a backend; the empty string resolves to DefaultID so
// pre-interface headers and zero-valued configs keep working.
func ByID(id string) (ProgressiveCodec, error) {
	if id == "" {
		id = DefaultID
	}
	registry.RLock()
	c, ok := registry.byID[id]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("codec: unknown backend %q (registered: %v)", id, IDs())
	}
	return c, nil
}

// IDs returns the registered backend identifiers, sorted.
func IDs() []string {
	registry.RLock()
	ids := make([]string, 0, len(registry.byID))
	for id := range registry.byID {
		ids = append(ids, id)
	}
	registry.RUnlock()
	sort.Strings(ids)
	return ids
}
