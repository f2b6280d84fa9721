package lossless

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

var allCodecs = []Codec{Deflate(), Raw()}

func TestByName(t *testing.T) {
	for _, name := range []string{"deflate", "raw"} {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	// zstd is substituted by deflate; huffman and rle were removed after
	// ablate-codec measured them larger than raw. An artifact header naming
	// any of them must be refused by name, never decoded as something else.
	for _, name := range []string{"zstd", "huffman", "rle", ""} {
		_, err := ByName(name)
		if err == nil {
			t.Fatalf("ByName(%q) should fail", name)
		}
		if !strings.Contains(err.Error(), strconv.Quote(name)) {
			t.Fatalf("ByName(%q) error does not name the codec: %v", name, err)
		}
	}
}

func TestRoundTripAllCodecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inputs := [][]byte{
		nil,
		{},
		{0},
		{255},
		bytes.Repeat([]byte{0xAA}, 1000),
		[]byte("hello progressive retrieval"),
	}
	random := make([]byte, 4096)
	rng.Read(random)
	inputs = append(inputs, random)

	for _, c := range allCodecs {
		for i, in := range inputs {
			enc, err := c.Compress(in)
			if err != nil {
				t.Fatalf("%s compress input %d: %v", c.Name(), i, err)
			}
			dec, err := c.Decompress(enc, len(in))
			if err != nil {
				t.Fatalf("%s decompress input %d: %v", c.Name(), i, err)
			}
			if !bytes.Equal(dec, in) {
				t.Fatalf("%s round trip failed on input %d", c.Name(), i)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	for _, c := range allCodecs {
		c := c
		f := func(in []byte) bool {
			enc, err := c.Compress(in)
			if err != nil {
				return false
			}
			dec, err := c.Decompress(enc, len(in))
			return err == nil && bytes.Equal(dec, in)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
	}
}

func TestCompressibleDataShrinks(t *testing.T) {
	in := bytes.Repeat([]byte{0x00}, 8192)
	enc, err := Deflate().Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) >= len(in)/10 {
		t.Fatalf("deflate: constant input compressed to %d of %d bytes", len(enc), len(in))
	}
}

func TestDecompressSizeMismatch(t *testing.T) {
	for _, c := range allCodecs {
		enc, err := c.Compress([]byte{1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Decompress(enc, 5); err == nil {
			t.Fatalf("%s: size mismatch not detected", c.Name())
		}
	}
}

// TestDecompressRefusesUnreachableSize: the expected size comes from an
// artifact header, so a size no segment of that length can inflate to — a
// forged RawPlaneSize of 1<<45 — is refused without sizing a buffer from
// it, while the densest real stream (a megabyte of zeros, ≈ 1000:1) still
// round-trips and a stream longer than the size stops being decoded.
func TestDecompressRefusesUnreachableSize(t *testing.T) {
	zeros := make([]byte, 1<<20)
	for _, c := range allCodecs {
		enc, err := c.Compress(zeros)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := c.Decompress(enc, len(zeros)); err != nil || !bytes.Equal(dec, zeros) {
			t.Fatalf("%s: %d zeros from %d bytes: err %v", c.Name(), len(zeros), len(enc), err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, size := range []int{1 << 45, -1, len(zeros) / 2} {
			if _, err := c.Decompress(enc, size); err == nil {
				t.Fatalf("%s: a %d-byte segment decoded to a claimed %d bytes", c.Name(), len(enc), size)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Fatalf("%s: refusing the sizes allocated %d bytes", c.Name(), grew)
		}
	}
}

func TestRawIsIdentityCopy(t *testing.T) {
	in := []byte{1, 2, 3}
	enc, _ := Raw().Compress(in)
	if &enc[0] == &in[0] {
		t.Fatal("Raw.Compress aliases input")
	}
	enc[0] = 42
	if in[0] != 1 {
		t.Fatal("Raw.Compress mutated input")
	}
}
