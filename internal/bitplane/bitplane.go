// Package bitplane implements the nega-binary bit-plane encoding of
// coefficient levels used by MGARD's progressive retrieval (§II-B).
//
// Each coefficient level is quantized against its own magnitude exponent and
// the quantized integers are written in base -2 (nega-binary), which encodes
// negative values without a separate sign plane and makes truncation errors
// alternate in sign. The encoding is then sliced into B bit-planes, most
// significant first; retrieving the first b planes and zeroing the rest
// yields a progressively refined approximation of the level.
//
// Alongside the planes, the encoder collects the error matrix
// Err[b] = max_i |c_i - decode_b(c_i)| for b = 0..B — the exact quantity
// MGARD's error estimator consumes to decide how many planes to fetch.
//
// The plane slicing and reassembly run word-parallel: 64 coefficients move
// through a 64×64 bit-matrix transpose per step instead of one bit test
// per coefficient per plane. Reassembly yields a level's words (Words),
// which decode to any prefix they hold, straight to grid positions if
// asked. The error matrix is collected incrementally, folding each
// coefficient only at the planes its leading digit reaches (see kernels.go
// and DESIGN.md §10). Encodings draw
// their buffers from shared pools; call Release on encodings you are done
// with to make steady-state encoding allocation-free.
package bitplane

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"pmgard/internal/bufpool"
	"pmgard/internal/obs"
	"pmgard/internal/pool"
)

// negaMask is the alternating-bit mask used by the nega-binary conversion
// identity: nb = (v + negaMask) ^ negaMask and v = (nb ^ negaMask) - negaMask.
const negaMask uint64 = 0xAAAAAAAAAAAAAAAA

// EncodeNegabinary converts a two's-complement integer to its nega-binary
// (base -2) representation.
func EncodeNegabinary(v int64) uint64 {
	return (uint64(v) + negaMask) ^ negaMask
}

// DecodeNegabinary converts a nega-binary representation back to a
// two's-complement integer.
func DecodeNegabinary(nb uint64) int64 {
	return int64((nb ^ negaMask) - negaMask)
}

// LevelEncoding is the bit-plane encoding of one coefficient level.
//
// Encodings returned by EncodeLevel draw Bits and ErrMatrix
// from shared buffer pools: they are fully owned by the caller until
// Release, after which the encoding and every slice it exposed must not be
// touched again. Callers that retain ErrMatrix (or plane bytes) past the
// encoding's life must copy them before releasing.
type LevelEncoding struct {
	// N is the number of coefficients on the level.
	N int
	// Planes is the number of bit-planes B.
	Planes int
	// Exponent is the power-of-two alignment exponent E: every
	// coefficient magnitude is at most 2^Exponent.
	Exponent int
	// Bits[k] is the k-th bit-plane (k = 0 is the most significant),
	// packed 8 coefficients per byte, LSB-first within a byte.
	Bits [][]byte
	// ErrMatrix[b] is the maximum absolute coefficient error when only the
	// first b planes are retrieved (ErrMatrix[0] is the error of reading
	// nothing; ErrMatrix[Planes] is the residual quantization error).
	ErrMatrix []float64

	// flat is the pooled backing array the Bits slices view; nil for
	// encodings assembled directly from retrieved planes.
	flat []byte
	// pooled marks encodings produced by EncodeLevel, the only ones
	// Release recycles.
	pooled bool
}

// encPool recycles LevelEncoding shells (the struct and its Bits header
// slice); the plane and error-matrix backing arrays cycle through bufpool.
var encPool = sync.Pool{New: func() any { return new(LevelEncoding) }}

// newLevelEncoding assembles a pooled encoding shell with plane and
// error-matrix buffers sized for (n, planes). Buffer contents are
// undefined; every byte the encoder does not overwrite must be cleared.
func newLevelEncoding(n, planes, planeBytes int) *LevelEncoding {
	e := encPool.Get().(*LevelEncoding)
	e.N, e.Planes, e.Exponent = n, planes, 0
	if cap(e.Bits) < planes {
		e.Bits = make([][]byte, planes)
	} else {
		e.Bits = e.Bits[:planes]
	}
	e.flat = bufpool.Bytes(planes * planeBytes)
	for k := 0; k < planes; k++ {
		e.Bits[k] = e.flat[k*planeBytes : (k+1)*planeBytes : (k+1)*planeBytes]
	}
	e.ErrMatrix = bufpool.Float64s(planes + 1)
	e.pooled = true
	return e
}

// Release returns the encoding's buffers to the shared pools and recycles
// the encoding itself. Only encodings produced by EncodeLevel are
// recycled; on any other encoding (for example one assembled from
// retrieved planes) Release is a no-op. After Release the encoding, its
// Bits and its ErrMatrix must not be used.
func (e *LevelEncoding) Release() {
	if e == nil || !e.pooled {
		return
	}
	bufpool.PutBytes(e.flat)
	bufpool.PutFloat64s(e.ErrMatrix)
	e.flat, e.ErrMatrix = nil, nil
	for k := range e.Bits {
		e.Bits[k] = nil
	}
	e.Bits = e.Bits[:0]
	e.pooled = false
	encPool.Put(e)
}

// EncodeLevel encodes coeffs into `planes` nega-binary bit-planes. planes
// must be in [1, 60]; 32 planes reproduce the paper's configuration.
//
// Quantization, plane slicing and the error-matrix fold run as one pass,
// a cache-sized block of coefficients at a time, fanned across at most
// `workers` goroutines (≤ 0 means GOMAXPROCS). Every plane byte and every
// error-matrix entry is computed in its own pre-sized slot from the same
// operands, so the encoding is bit-identical for every worker count.
//
// Adversarial inputs are handled deterministically rather than poisoning
// the planes: NaN quantizes to zero, ±Inf saturates to the level's
// quantization limit, and non-finite coefficients are excluded from both
// the alignment exponent and the error matrix (no finite plane prefix can
// bound the error of a non-finite value). A level whose magnitudes all
// underflow the quantization unit (denormals) encodes as all-zero planes
// with the residual max magnitude recorded in every error-matrix entry.
//
// A non-nil o records a "bitplane.encode" span, counters
// bitplane.levels_encoded / bitplane.planes_encoded /
// bitplane.coeffs_encoded / bitplane.errmatrix_pairs (the (coefficient,
// plane) pairs the error matrix folded one by one; its ratio to
// coeffs_encoded × planes is the share the fold did not skip),
// pool task metrics of the fused pass under pool.bitplane.encode.*, and
// under pool.bitplane.errmatrix.* one task per chunk timing its
// error-matrix fold.
func EncodeLevel(coeffs []float64, planes, workers int, o *obs.Obs) (_ *LevelEncoding, err error) {
	var pairs int64
	if o != nil {
		sp := o.Span("bitplane.encode", nil)
		sp.SetAttr("coeffs", len(coeffs))
		sp.SetAttr("planes", planes)
		defer func() {
			if err == nil {
				o.Counter("bitplane.levels_encoded").Add(1)
				o.Counter("bitplane.planes_encoded").Add(int64(planes))
				o.Counter("bitplane.coeffs_encoded").Add(int64(len(coeffs)))
				o.Counter("bitplane.errmatrix_pairs").Add(pairs)
			}
			sp.End()
		}()
	}
	if planes < 1 || planes > 60 {
		return nil, fmt.Errorf("bitplane: planes %d out of range [1,60]", planes)
	}
	workers = pool.Clamp(workers)
	n := len(coeffs)
	planeBytes := (n + 7) / 8
	enc := newLevelEncoding(n, planes, planeBytes)

	maxAbs := 0.0
	for _, c := range coeffs {
		if a := math.Abs(c); a > maxAbs && !math.IsInf(c, 0) {
			maxAbs = a
		}
	}
	if maxAbs == 0 || n == 0 {
		// All-zero level (or only zeros and non-finite values): planes and
		// errors are zero. Exponent is arbitrary; use a sentinel that
		// dequantizes to zero regardless. Pooled buffers arrive dirty, so
		// zero them explicitly.
		enc.Exponent = math.MinInt16
		clear(enc.flat)
		clear(enc.ErrMatrix)
		return enc, nil
	}
	// Smallest E with maxAbs ≤ 2^E, capped so dequantized values stay
	// finite at the saturation limit.
	enc.Exponent = int(math.Ceil(math.Log2(maxAbs)))
	if math.Ldexp(1, enc.Exponent) < maxAbs {
		enc.Exponent++ // guard against log2 rounding
	}
	if enc.Exponent > 1023 {
		enc.Exponent = 1023
	}

	// Quantize to at most 2^(B-2) so the nega-binary representation fits
	// in B digits.
	unit := math.Ldexp(1, enc.Exponent-(planes-2))
	limit := int64(1) << uint(planes-2)
	if unit == 0 {
		// The quantization unit underflowed (a denormal-only level): no
		// plane can represent anything, so record the residual magnitude
		// as the error of every prefix and keep the zero-sentinel planes.
		enc.Exponent = math.MinInt16
		clear(enc.flat)
		for b := range enc.ErrMatrix {
			enc.ErrMatrix[b] = maxAbs
		}
		return enc, nil
	}

	// Quantize, slice and fold the error matrix one block of coefficients
	// at a time, so a block's words are sliced and folded while still in
	// cache and no level-size word array exists. Chunks are runs of whole
	// 64-coefficient groups, so each worker's writes land on disjoint bytes
	// of every plane, and every plane byte is stored, so the pooled (dirty)
	// backing needs no clearing. ErrMatrix[b] is the max over the chunks'
	// partial maxima; merging maxima is exact and order-independent, so the
	// result is identical for every worker count.
	encodeM := pool.NewMetrics(o, "bitplane.encode")
	lv := levelEncoder{coeffs: coeffs, enc: enc, unit: unit, limit: limit, errM: pool.NewMetrics(o, "bitplane.errmatrix")}
	groups := (n + 63) / 64
	if workers == 1 && encodeM == nil {
		clear(enc.ErrMatrix)
		pairs = lv.encodeGroups(0, 0, groups, enc.ErrMatrix)
		return enc, nil
	}
	chunks := min(workers, groups)
	stride := planes + 1
	partial := bufpool.Float64s(chunks * stride)
	clear(partial)
	var chunkPairs atomic.Int64
	// The fan-out's closure takes its own copy, so the sequential path's
	// encoder stays on the stack.
	fan := lv
	pool.Run(context.Background(), chunks, workers, encodeM, func(worker, c int) error {
		g0, g1 := c*groups/chunks, (c+1)*groups/chunks
		chunkPairs.Add(fan.encodeGroups(worker, g0, g1, partial[c*stride:(c+1)*stride]))
		return nil
	})
	pairs = chunkPairs.Load()
	for b := 0; b <= planes; b++ {
		m := 0.0
		for c := 0; c < chunks; c++ {
			if v := partial[c*stride+b]; v > m {
				m = v
			}
		}
		enc.ErrMatrix[b] = m
	}
	bufpool.PutFloat64s(partial)
	return enc, nil
}

// levelEncoder is what one level's fused encode pass reads: the
// coefficients, the encoding whose planes it writes, and the level's
// quantization.
type levelEncoder struct {
	coeffs []float64
	enc    *LevelEncoding
	unit   float64
	limit  int64
	// errM times the error-matrix fold: one task per chunk, the sum of its
	// blocks' folds.
	errM *pool.Metrics
}

// encodeGroups runs the fused pass over coefficient groups [g0, g1) a
// block at a time — quantize the block's words into pooled scratch, slice
// them into the planes, fold them into the error matrix — and raises out
// (planes+1 entries) to the chunk's maxima. It returns the (coefficient,
// plane) pairs the fold visited one by one.
func (lv *levelEncoder) encodeGroups(worker, g0, g1 int, out []float64) (pairs int64) {
	e := lv.enc
	planeBytes := (e.N + 7) / 8
	ws := bufpool.Uint64s(foldBlock)
	sw := bufpool.Uint64s(foldBlock)
	sc := bufpool.Float64s(foldBlock)
	var acc [61]float64
	var fold time.Duration
	for g := g0; g < g1; g += foldBlock / 64 {
		h := min(g+foldBlock/64, g1)
		cs := lv.coeffs[64*g : min(64*h, e.N)]
		w := ws[:len(cs)]
		quantize(cs, w, lv.unit, lv.limit)
		sliceGroups(w, e.Bits, e.Planes, planeBytes, g, h)
		var start time.Time
		if lv.errM != nil {
			start = time.Now()
		}
		pairs += foldErrors(cs, w, sw, sc, lv.unit, e.Planes, &acc)
		if lv.errM != nil {
			fold += time.Since(start)
		}
	}
	lv.errM.Record(worker, fold)
	for b := 0; b <= e.Planes; b++ {
		if acc[b] > out[b] {
			out[b] = acc[b]
		}
	}
	bufpool.PutFloat64s(sc)
	bufpool.PutUint64s(sw)
	bufpool.PutUint64s(ws)
	return pairs
}

// unitSize returns the dequantization unit, or 0 for an all-zero level.
func (e *LevelEncoding) unitSize() float64 {
	if e.Exponent == math.MinInt16 {
		return 0
	}
	return math.Ldexp(1, e.Exponent-(e.Planes-2))
}

// PlaneSizeRaw returns the uncompressed size in bytes of one bit-plane.
func (e *LevelEncoding) PlaneSizeRaw() int { return (e.N + 7) / 8 }
