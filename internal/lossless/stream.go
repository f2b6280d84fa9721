package lossless

import (
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"pmgard/internal/obs"
)

const (
	// deflateLevel is the effort a segment is deflated at unless it is
	// sparse or stored. Level 5 walks hash chains of 32 where level 6 walks
	// 128; on bit-planes, whose matches are short runs found early in a
	// chain, that saves ≈ 20 % of the deflate time for ≈ 0.1 % of bytes.
	deflateLevel = 5
	// sparseLevel is the effort for a segment under sparseEntropy: a plane
	// of long zero runs ends level 6's chain walks as early as level 5's,
	// so level 6 costs no more time there and writes ≈ 1 % fewer bytes —
	// up to a sixth fewer where a run repeats beyond level 5's chains.
	sparseLevel   = 6
	sparseEntropy = 0.5
	// storedEntropy is the byte entropy, in bits per byte, from which a
	// segment may go out stored: a Huffman code saves at most (8 − H)/8 of
	// it, 1.25 % at the gate.
	storedEntropy = 7.9
	// lzWindow is DEFLATE's match window, the farthest back a match reaches.
	lzWindow = 32 << 10
	// repeatHashBits sizes the repeat probe's hash table: 2¹⁴ buckets keep
	// most positions of a 32 KiB window.
	repeatHashBits = 14
	// maxStoredBlock is the payload limit of one stored block.
	maxStoredBlock = 1<<16 - 1
)

// deflater is the pooled state of one segment write: a flate.Writer that
// appends to out, and the repeat probe's hash table, allocated by the first
// probe that needs it (a sparse plane never does). A fresh flate.Writer
// allocates hundreds of kilobytes of window state, and compression runs
// over thousands of small plane segments.
type deflater struct {
	w     *flate.Writer
	out   appendWriter
	table []uint64
}

// deflaters and sparseDeflaters pool the writers of the two levels.
var deflaters, sparseDeflaters = deflaterPool(deflateLevel), deflaterPool(sparseLevel)

func deflaterPool(level int) *sync.Pool {
	return &sync.Pool{New: func() any {
		d := new(deflater)
		w, err := flate.NewWriter(&d.out, level)
		if err != nil {
			panic(err) // only possible for invalid level constants
		}
		d.w = w
		return d
	}}
}

// appendWriter is an io.Writer that appends to b.
type appendWriter struct{ b []byte }

// Write implements io.Writer.
func (a *appendWriter) Write(p []byte) (int, error) {
	a.b = append(a.b, p...)
	return len(p), nil
}

// AppendCompress compresses src with codec and appends the encoded bytes to
// dst, returning the extended slice. It is the one writer path: with a
// recycled dst of adequate capacity the deflate and raw paths complete
// without allocating, because the encoded bytes land directly in dst. The
// encoded bytes are identical to codec.Compress(src) for every codec.
//
// DEFLATE spends on each segment the effort its bytes repay, as a probe of
// the byte histogram decides. A segment DEFLATE cannot shrink — its bytes
// near-uniformly distributed, so no Huffman code pays, and no 4-byte
// sequence recurring within the window, so no match does — goes out as
// stored blocks, like a low-order bit-plane. Both checks are needed: a
// field constant along one axis yields planes with a flat histogram whose
// rows repeat. A sparse segment is deflated at sparseLevel and every other
// one at deflateLevel. All three are plain RFC 1951, so the reader needs no
// flag to tell them apart.
func AppendCompress(codec Codec, dst, src []byte) ([]byte, error) {
	out, _, err := appendCompress(codec, dst, src)
	return out, err
}

// appendCompress is AppendCompress, also reporting whether the segment went
// out as stored DEFLATE blocks.
func appendCompress(codec Codec, dst, src []byte) (out []byte, stored bool, err error) {
	switch codec.(type) {
	case deflateCodec:
		h := byteEntropy(src)
		pool := deflaters
		if h < sparseEntropy {
			pool = sparseDeflaters
		}
		d := pool.Get().(*deflater)
		defer pool.Put(d)
		if h >= storedEntropy {
			if d.table == nil {
				d.table = make([]uint64, 1<<repeatHashBits)
			}
			if !repeats(src, d.table) {
				return appendStored(dst, src), true, nil
			}
		}
		d.out.b = dst
		d.w.Reset(&d.out)
		_, err := d.w.Write(src)
		if err == nil {
			err = d.w.Close()
		}
		out, d.out.b = d.out.b, nil
		if err != nil {
			return dst, false, fmt.Errorf("lossless: deflate: %w", err)
		}
		return out, false, nil
	case rawCodec:
		return append(dst, src...), false, nil
	default:
		enc, err := codec.Compress(src)
		if err != nil {
			return dst, false, err
		}
		return append(dst, enc...), false, nil
	}
}

// byteEntropy returns the order-0 entropy of src in bits per byte. Fewer
// than 256 bytes are too few to tell a flat histogram, and read as sparse
// as they may be: level 6 costs nothing on them.
func byteEntropy(src []byte) float64 {
	if len(src) < 256 {
		return 0
	}
	// Four histograms let consecutive increments of one byte value proceed
	// without waiting on each other.
	var h [4][256]uint32
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s := src[i : i+4 : i+4]
		h[0][s[0]]++
		h[1][s[1]]++
		h[2][s[2]]++
		h[3][s[3]]++
	}
	for ; i < len(src); i++ {
		h[0][src[i]]++
	}
	var sum float64
	for b := range 256 {
		if c := h[0][b] + h[1][b] + h[2][b] + h[3][b]; c > 0 {
			sum += float64(c) * math.Log2(float64(c))
		}
	}
	n := float64(len(src))
	return math.Log2(n) - sum/n
}

// repeats reports whether more than 1/256 of src's positions start a 4-byte
// sequence seen within the last lzWindow bytes: matches over that share of
// a segment would repay deflating it. table holds, per hash, the last
// sequence seen and its position, so a probe never reads src out of order;
// it is sized to src, so a short segment clears little of it.
func repeats(src []byte, table []uint64) bool {
	hashBits := min(bits.Len(uint(len(src))), repeatHashBits)
	table = table[:1<<hashBits]
	clear(table)
	need := len(src) >> 8
	for i := 0; i+4 <= len(src); i++ {
		v := binary.LittleEndian.Uint32(src[i:])
		h := (v * 0x1e35a7bd) >> (32 - hashBits)
		seen := table[h]
		table[h] = uint64(v)<<32 | uint64(i)
		// An empty bucket reads as 0000 at position 0: at most one false
		// repeat per segment, far below any threshold.
		if uint32(seen>>32) == v && uint(i-int(uint32(seen))-1) < lzWindow {
			if need--; need < 0 {
				return true
			}
		}
	}
	return false
}

// appendStored appends src to dst as stored DEFLATE blocks (RFC 1951
// §3.2.4), the last one final: a byte-aligned header, LEN and its
// complement, then the bytes themselves.
func appendStored(dst, src []byte) []byte {
	for {
		n := min(len(src), maxStoredBlock)
		final := byte(0)
		if n == len(src) {
			final = 1
		}
		dst = append(dst, final, byte(n), byte(n>>8), ^byte(n), ^byte(n>>8))
		dst = append(dst, src[:n]...)
		if src = src[n:]; final == 1 {
			return dst
		}
	}
}

// CompressInstruments carries the per-segment compression telemetry of
// the streaming pipeline, which compresses segments one at a time:
// counters lossless.segments_compressed / lossless.segments_stored (the
// DEFLATE segments that went out as stored blocks) /
// lossless.compress_bytes_in / lossless.compress_bytes_out and the
// lossless.segment_bytes size histogram. A nil *CompressInstruments
// observes nothing, so the disabled path stays one pointer check.
type CompressInstruments struct {
	segments *obs.Counter
	stored   *obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	sizes    *obs.Histogram
}

// NewCompressInstruments resolves the compression instruments in o's
// registry; nil (no-op) on a nil or metrics-less o.
func NewCompressInstruments(o *obs.Obs) *CompressInstruments {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return &CompressInstruments{
		segments: o.Counter("lossless.segments_compressed"),
		stored:   o.Counter("lossless.segments_stored"),
		bytesIn:  o.Counter("lossless.compress_bytes_in"),
		bytesOut: o.Counter("lossless.compress_bytes_out"),
		sizes:    o.Histogram("lossless.segment_bytes", obs.ByteBuckets()),
	}
}

// AppendCompress is the package's AppendCompress, recording the segment.
func (ci *CompressInstruments) AppendCompress(codec Codec, dst, src []byte) ([]byte, error) {
	out, stored, err := appendCompress(codec, dst, src)
	if ci == nil || err != nil {
		return out, err
	}
	encoded := len(out) - len(dst)
	ci.segments.Add(1)
	if stored {
		ci.stored.Add(1)
	}
	ci.bytesIn.Add(int64(len(src)))
	ci.bytesOut.Add(int64(encoded))
	ci.sizes.Observe(float64(encoded))
	return out, nil
}
