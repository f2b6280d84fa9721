package lossless

import (
	"bytes"
	"compress/flate"
	"fmt"

	"pmgard/internal/obs"
)

// AppendCompress compresses src with codec and appends the encoded bytes to
// dst, returning the extended slice. It is the streaming pipeline's
// allocation-free variant of Codec.Compress: with a recycled dst of
// adequate capacity the deflate and raw fast paths complete without
// allocating, because the encoded bytes land directly in dst instead of an
// exact-size result copy. The encoded bytes are identical to
// codec.Compress(src) for every codec.
func AppendCompress(codec Codec, dst, src []byte) ([]byte, error) {
	switch codec.(type) {
	case deflateCodec:
		buf := flateBuffers.Get().(*bytes.Buffer)
		buf.Reset()
		defer flateBuffers.Put(buf)
		w := flateWriters.Get().(*flate.Writer)
		defer flateWriters.Put(w)
		w.Reset(buf)
		if _, err := w.Write(src); err != nil {
			return dst, fmt.Errorf("lossless: deflate write: %w", err)
		}
		if err := w.Close(); err != nil {
			return dst, fmt.Errorf("lossless: deflate close: %w", err)
		}
		return append(dst, buf.Bytes()...), nil
	case rawCodec:
		return append(dst, src...), nil
	default:
		enc, err := codec.Compress(src)
		if err != nil {
			return dst, err
		}
		return append(dst, enc...), nil
	}
}

// CompressInstruments carries the per-segment compression telemetry of
// the streaming pipeline, which compresses segments one at a time: counters lossless.segments_compressed /
// lossless.compress_bytes_in / lossless.compress_bytes_out and the
// lossless.segment_bytes size histogram. A nil *CompressInstruments
// observes nothing, so the disabled path stays one pointer check.
type CompressInstruments struct {
	segments *obs.Counter
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
		bytesIn:  o.Counter("lossless.compress_bytes_in"),
		bytesOut: o.Counter("lossless.compress_bytes_out"),
		sizes:    o.Histogram("lossless.segment_bytes", obs.ByteBuckets()),
	}
}

// Observe records one compressed segment of the given raw and encoded
// byte sizes.
func (ci *CompressInstruments) Observe(rawBytes, encodedBytes int) {
	if ci == nil {
		return
	}
	ci.segments.Add(1)
	ci.bytesIn.Add(int64(rawBytes))
	ci.bytesOut.Add(int64(encodedBytes))
	ci.sizes.Observe(float64(encodedBytes))
}
