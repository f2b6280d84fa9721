package lossless

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip checks compress→decompress identity on arbitrary inputs for
// every codec.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{0xAA}, 300))
	f.Add([]byte("the quick brown fox"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range allCodecs {
			enc, err := c.Compress(data)
			if err != nil {
				t.Fatalf("%s: compress: %v", c.Name(), err)
			}
			dec, err := c.Decompress(enc, len(data))
			if err != nil {
				t.Fatalf("%s: decompress: %v", c.Name(), err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%s: round trip mismatch", c.Name())
			}
		}
	})
}

// FuzzDecompressGarbage ensures decoders never panic on malformed streams.
func FuzzDecompressGarbage(f *testing.F) {
	f.Add([]byte{}, 10)
	f.Add([]byte{1, 2, 3}, 0)
	f.Add([]byte{0, 0, 0, 0}, 100)
	f.Fuzz(func(t *testing.T, data []byte, size int) {
		if size < 0 || size > 1<<20 {
			t.Skip()
		}
		for _, c := range allCodecs {
			c.Decompress(data, size) // errors fine, panics are not
		}
	})
}
