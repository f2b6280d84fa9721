// Package lossless provides the lossless coding stage applied to each
// encoded bit-plane before storage (§II-B). The original MGARD uses ZSTD;
// this reproduction substitutes DEFLATE, which preserves the qualitative
// per-plane size profile the retrieval-size math depends on (sign/high
// planes compress well, low-order planes look like noise).
//
// The writer spends on each plane the effort its bytes repay: a plane
// DEFLATE cannot shrink goes out as stored blocks, a sparse plane is
// deflated at level 6 and every other one at level 5 (AppendCompress). The
// reader is the package's own exact-size decoder (inflate.go), which takes
// any RFC 1951 stream, so the choice needs no header field.
//
// Codecs are stateless and safe for concurrent use.
package lossless

import "fmt"

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

// Deflate returns the DEFLATE codec. Its writer spends on each segment
// the effort the segment's bytes repay (AppendCompress); its reader takes
// any RFC 1951 stream.
func Deflate() Codec { return deflateCodec{} }

type deflateCodec struct{}

// Name implements Codec.
func (deflateCodec) Name() string { return "deflate" }

// Compress implements Codec.
func (deflateCodec) Compress(src []byte) ([]byte, error) {
	return AppendCompress(deflateCodec{}, nil, src)
}

// maxDeflateRatio bounds how far DEFLATE can expand its input: at best a
// 258-byte match costs two bits (one-bit length and distance codes), so no
// stream inflates to more than 1032 bytes per input byte.
const maxDeflateRatio = 1032

// Decompress implements Codec. A size src cannot inflate to is refused
// before anything is allocated — the expected size comes from an artifact
// header, which is input, not a promise. The stream inflates straight into
// the output, and a stream that holds even one byte past size is an error.
func (deflateCodec) Decompress(src []byte, size int) ([]byte, error) {
	if size < 0 || size/maxDeflateRatio > len(src) {
		return nil, fmt.Errorf("lossless: a %d-byte deflate segment cannot inflate to %d bytes", len(src), size)
	}
	return inflate(src, size)
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
