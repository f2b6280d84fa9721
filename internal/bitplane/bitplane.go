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
// per coefficient per plane, and the error matrix is collected
// incrementally, folding each coefficient only at the planes its leading
// digit reaches (see kernels.go and DESIGN.md §10). Encodings draw
// their buffers from shared pools; call Release on encodings you are done
// with to make steady-state encoding allocation-free.
package bitplane

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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

// Mode selects the bit-plane representation.
type Mode int

const (
	// Negabinary is MGARD's base -2 encoding (the default): no separate
	// sign plane, truncation errors alternate in sign.
	Negabinary Mode = iota
	// SignMagnitude uses one sign plane followed by magnitude planes MSB
	// first — the conventional alternative, used by the encoding ablation.
	SignMagnitude
)

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
	// Mode is the plane representation.
	Mode Mode

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
func newLevelEncoding(n, planes, planeBytes int, mode Mode) *LevelEncoding {
	e := encPool.Get().(*LevelEncoding)
	e.N, e.Planes, e.Mode, e.Exponent = n, planes, mode, 0
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

// EncodeLevel encodes coeffs into `planes` bit-planes under the chosen plane
// representation. planes must be in [1, 60]; 32 nega-binary planes
// reproduce the paper's configuration.
//
// The quantization, plane-slicing and error-matrix loops fan across at most
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
// bitplane.errmatrix_tasks / bitplane.coeffs_encoded /
// bitplane.errmatrix_pairs (the (coefficient, plane) pairs the error matrix
// folded one by one; its ratio to coeffs_encoded × planes is the share the
// nega-binary kernel did not skip), and pool task metrics under
// pool.bitplane.encode.* and pool.bitplane.errmatrix.*.
func EncodeLevel(coeffs []float64, planes int, mode Mode, workers int, o *obs.Obs) (_ *LevelEncoding, err error) {
	var pairs int64
	if o != nil {
		sp := o.Span("bitplane.encode", nil)
		sp.SetAttr("coeffs", len(coeffs))
		sp.SetAttr("planes", planes)
		defer func() {
			if err == nil {
				o.Counter("bitplane.levels_encoded").Add(1)
				o.Counter("bitplane.planes_encoded").Add(int64(planes))
				o.Counter("bitplane.errmatrix_tasks").Add(int64(planes) + 1)
				o.Counter("bitplane.coeffs_encoded").Add(int64(len(coeffs)))
				o.Counter("bitplane.errmatrix_pairs").Add(pairs)
			}
			sp.End()
		}()
	}
	if planes < 1 || planes > 60 {
		return nil, fmt.Errorf("bitplane: planes %d out of range [1,60]", planes)
	}
	if mode != Negabinary && mode != SignMagnitude {
		return nil, fmt.Errorf("bitplane: unknown mode %d", mode)
	}
	workers = pool.Clamp(workers)
	n := len(coeffs)
	planeBytes := (n + 7) / 8
	enc := newLevelEncoding(n, planes, planeBytes, mode)

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

	encodeM := pool.NewMetrics(o, "bitplane.encode")
	words := bufpool.Uint64s(n)
	if workers == 1 && encodeM == nil {
		quantizeRange(coeffs, words, unit, limit, planes, mode, 0, n)
	} else {
		pool.RunChunks(n, workers, encodeM, func(_, lo, hi int) error {
			quantizeRange(coeffs, words, unit, limit, planes, mode, lo, hi)
			return nil
		})
	}

	// Slice into planes, MSB first (plane 0 is the sign plane in
	// sign-magnitude mode), 64 coefficients per transpose step. Chunking
	// by group keeps each worker's writes on disjoint bytes of every
	// plane, and every plane byte is stored, so the pooled (dirty)
	// backing needs no clearing.
	groups := (n + 63) / 64
	if workers == 1 && encodeM == nil {
		sliceGroups(words, enc.Bits, planes, planeBytes, 0, groups)
	} else {
		pool.RunChunks(groups, workers, encodeM, func(_, lo, hi int) error {
			sliceGroups(words, enc.Bits, planes, planeBytes, lo, hi)
			return nil
		})
	}

	// Collect the error matrix per coefficient range: ErrMatrix[b] is the
	// max over all ranges' partial maxima.
	// Merging maxima is exact and order-independent, so the result is
	// identical for every worker count.
	errM := pool.NewMetrics(o, "bitplane.errmatrix")
	if workers == 1 && errM == nil {
		clear(enc.ErrMatrix)
		pairs = errMatrixRange(coeffs, words, unit, planes, mode, 0, n, enc.ErrMatrix)
	} else {
		chunks := workers
		if chunks > n {
			chunks = n
		}
		stride := planes + 1
		partial := bufpool.Float64s(chunks * stride)
		clear(partial)
		var chunkPairs atomic.Int64
		pool.Run(context.Background(), chunks, workers, errM, func(_, c int) error {
			lo, hi := c*n/chunks, (c+1)*n/chunks
			chunkPairs.Add(errMatrixRange(coeffs, words, unit, planes, mode, lo, hi, partial[c*stride:(c+1)*stride]))
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
	}
	bufpool.PutUint64s(words)
	return enc, nil
}

// encodeWord packs a quantized coefficient into a plane word under the
// given mode. In sign-magnitude mode the top bit is the sign and the
// remaining planes-1 bits hold |q| (clamped to fit).
func encodeWord(q int64, planes int, mode Mode) uint64 {
	if mode == Negabinary {
		return EncodeNegabinary(q)
	}
	magBits := uint(planes - 1)
	var sign uint64
	mag := q
	if q < 0 {
		sign = 1
		mag = -q
	}
	maxMag := int64(1)<<magBits - 1
	if mag > maxMag {
		mag = maxMag
	}
	return sign<<magBits | uint64(mag)
}

// decodeWord reverses encodeWord on a (possibly truncated) word.
func decodeWord(w uint64, planes int, mode Mode) int64 {
	if mode == Negabinary {
		return DecodeNegabinary(w)
	}
	magBits := uint(planes - 1)
	mag := int64(w & (uint64(1)<<magBits - 1))
	if w>>magBits&1 == 1 {
		return -mag
	}
	return mag
}

// unitSize returns the dequantization unit, or 0 for an all-zero level.
func (e *LevelEncoding) unitSize() float64 {
	if e.Exponent == math.MinInt16 {
		return 0
	}
	return math.Ldexp(1, e.Exponent-(e.Planes-2))
}

// DecodePartial reconstructs the level coefficients from the first b planes
// into dst (allocated if nil) and returns it. b must be in [0, Planes].
// With a caller-provided dst the decode is allocation-free.
//
// The reconstruction fans across at most `workers` goroutines (≤ 0 means
// GOMAXPROCS). Each coefficient group is reconstructed independently from
// the same plane bytes, so the output is bit-identical for every worker
// count.
//
// A non-nil o records a "bitplane.decode" span, counters
// bitplane.partial_decodes / bitplane.planes_decoded, and pool task metrics
// under pool.bitplane.decode.*.
func (e *LevelEncoding) DecodePartial(b int, dst []float64, workers int, o *obs.Obs) []float64 {
	if o != nil {
		sp := o.Span("bitplane.decode", nil)
		sp.SetAttr("planes", b)
		defer func() {
			o.Counter("bitplane.partial_decodes").Add(1)
			o.Counter("bitplane.planes_decoded").Add(int64(b))
			sp.End()
		}()
	}
	if b < 0 || b > e.Planes {
		panic(fmt.Sprintf("bitplane: DecodePartial b=%d out of range [0,%d]", b, e.Planes))
	}
	if dst == nil {
		dst = make([]float64, e.N)
	}
	if len(dst) != e.N {
		panic(fmt.Sprintf("bitplane: DecodePartial dst length %d, want %d", len(dst), e.N))
	}
	unit := e.unitSize()
	if unit == 0 || b == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return dst
	}
	decodeM := pool.NewMetrics(o, "bitplane.decode")
	workers = pool.Clamp(workers)
	groups := (e.N + 63) / 64
	gather := gatherGroups
	if b <= 8 {
		// Shallow prefixes move through 8×8 tiles instead of the full
		// 64-row transpose; both kernels recover the identical words.
		gather = gatherGroupsSmall
	}
	if workers == 1 && decodeM == nil {
		gather(e.Bits, dst, b, e.Planes, e.Mode, unit, 0, groups)
	} else {
		pool.RunChunks(groups, workers, decodeM, func(_, lo, hi int) error {
			gather(e.Bits, dst, b, e.Planes, e.Mode, unit, lo, hi)
			return nil
		})
	}
	return dst
}

// Decode reconstructs the level from all planes (residual quantization
// error remains).
func (e *LevelEncoding) Decode(dst []float64) []float64 {
	return e.DecodePartial(e.Planes, dst, 1, nil)
}

// PlaneSizeRaw returns the uncompressed size in bytes of one bit-plane.
func (e *LevelEncoding) PlaneSizeRaw() int { return (e.N + 7) / 8 }
