// Package lossless provides the lossless coding stage applied to each
// encoded bit-plane before storage (§II-B). The original MGARD uses ZSTD;
// this reproduction substitutes stdlib DEFLATE, which preserves the
// qualitative per-plane size profile the retrieval-size math depends on
// (sign/high planes compress well, low-order planes look like noise).
//
// Codecs are stateless and safe for concurrent use.
package lossless

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"

	"pmgard/internal/bufpool"
)

// Codec compresses and decompresses byte segments.
type Codec interface {
	// Name identifies the codec in metadata.
	Name() string
	// Compress returns the encoded form of src.
	Compress(src []byte) ([]byte, error)
	// Decompress reverses Compress. size is the expected decoded length,
	// which codecs use for allocation and validation.
	Decompress(src []byte, size int) ([]byte, error)
}

// ByName returns the codec registered under name: "deflate" or "raw". Any
// other name — including one read from an artifact header — is an error
// that names it.
func ByName(name string) (Codec, error) {
	switch name {
	case "deflate":
		return Deflate(), nil
	case "raw":
		return Raw(), nil
	default:
		return nil, fmt.Errorf("lossless: unknown codec %q (have deflate, raw)", name)
	}
}

// Deflate returns a DEFLATE codec at the default compression level.
func Deflate() Codec { return deflateCodec{} }

type deflateCodec struct{}

// Name implements Codec.
func (deflateCodec) Name() string { return "deflate" }

// flateWriters pools encoders: a fresh flate.Writer allocates hundreds of
// kilobytes of window state, and compression runs over thousands of small
// plane segments.
var flateWriters = sync.Pool{
	New: func() any {
		w, err := flate.NewWriter(io.Discard, flate.DefaultCompression)
		if err != nil {
			panic(err) // only possible for invalid level constants
		}
		return w
	},
}

// flateBuffers pools the compression staging buffers; the compressed bytes
// are copied into an exact-size result so the (growing) buffer is reused
// instead of escaping with every call.
var flateBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Compress implements Codec.
func (deflateCodec) Compress(src []byte) ([]byte, error) {
	buf := flateBuffers.Get().(*bytes.Buffer)
	buf.Reset()
	defer flateBuffers.Put(buf)
	w := flateWriters.Get().(*flate.Writer)
	defer flateWriters.Put(w)
	w.Reset(buf)
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("lossless: deflate write: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("lossless: deflate close: %w", err)
	}
	out := make([]byte, buf.Len())
	copy(out, buf.Bytes())
	return out, nil
}

// flateReader bundles a pooled inflater with the bytes.Reader it drains, so
// a decompression resets two reused objects instead of allocating the
// inflater's decompression window per call.
type flateReader struct {
	src bytes.Reader
	r   io.ReadCloser
}

// flateReaders pools inflaters: flate.NewReader allocates the sliding
// window up front, and decompression runs over thousands of small plane
// segments. The stdlib reader implements flate.Resetter, which the New
// path relies on.
var flateReaders = sync.Pool{
	New: func() any {
		fr := &flateReader{}
		fr.r = flate.NewReader(&fr.src)
		return fr
	},
}

// maxDeflateRatio bounds how far DEFLATE can expand its input: at best a
// 258-byte match costs two bits (one-bit length and distance codes), so no
// stream inflates to more than 1032 bytes per input byte.
const maxDeflateRatio = 1032

// Decompress implements Codec. A size src cannot inflate to is refused
// before anything is allocated — the expected size comes from an artifact
// header, which is input, not a promise — and decoding stops as soon as the
// output passes size.
func (deflateCodec) Decompress(src []byte, size int) ([]byte, error) {
	if size < 0 || size/maxDeflateRatio > len(src) {
		return nil, fmt.Errorf("lossless: a %d-byte deflate segment cannot inflate to %d bytes", len(src), size)
	}
	fr := flateReaders.Get().(*flateReader)
	fr.src.Reset(src)
	if err := fr.r.(flate.Resetter).Reset(&fr.src, nil); err != nil {
		return nil, fmt.Errorf("lossless: deflate reset: %w", err)
	}
	defer func() {
		fr.src.Reset(nil) // drop the segment reference before pooling
		flateReaders.Put(fr)
	}()
	out := make([]byte, 0, size)
	buf := bufpool.Bytes(32 * 1024)
	defer bufpool.PutBytes(buf)
	for {
		n, err := fr.r.Read(buf)
		out = append(out, buf[:n]...)
		if len(out) > size {
			break
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("lossless: deflate read: %w", err)
		}
	}
	if len(out) != size {
		return nil, fmt.Errorf("lossless: deflate decoded %d bytes, want %d", len(out), size)
	}
	return out, nil
}

// Raw returns an identity codec, useful for measuring the benefit of the
// lossless stage in ablations.
func Raw() Codec { return rawCodec{} }

type rawCodec struct{}

// Name implements Codec.
func (rawCodec) Name() string { return "raw" }

// Compress implements Codec.
func (rawCodec) Compress(src []byte) ([]byte, error) {
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}

// Decompress implements Codec.
func (rawCodec) Decompress(src []byte, size int) ([]byte, error) {
	if len(src) != size {
		return nil, fmt.Errorf("lossless: raw segment is %d bytes, want %d", len(src), size)
	}
	out := make([]byte, len(src))
	copy(out, src)
	return out, nil
}
