package lossless

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/obs"
)

// effortRow is one segment the writer's effort choice is held to.
type effortRow struct {
	name string
	in   []byte
}

// effortRows returns the real bit-planes of realPlanes and the inputs built
// to fool the probe: a random block repeated within the window (flat
// histogram, every byte a match), the bit-planes of a field constant along
// one axis, and the degenerate all-zero, one-byte and empty segments.
func effortRows(tb testing.TB) []effortRow {
	tb.Helper()
	var rows []effortRow
	for _, name := range []string{"sparse", "mid", "noise"} {
		rows = append(rows, effortRow{name, planesOrFatal(tb)[name]})
	}
	rng := rand.New(rand.NewSource(4))
	block := make([]byte, 4<<10)
	rng.Read(block)
	rows = append(rows, effortRow{"repeated-4KiB-block", bytes.Repeat(block, 64)})
	for k, p := range extrudedPlanes(tb, rng) {
		rows = append(rows, effortRow{fmt.Sprintf("extruded/plane%02d", k), p})
	}
	return append(rows,
		effortRow{"zeros", make([]byte, 64<<10)},
		effortRow{"one-byte", []byte{0x5a}},
		effortRow{"empty", nil})
}

// extrudedPlanes returns the 32 bit-planes of a 4×160×160 field constant
// along its first axis, its values encoded directly: each plane is four
// copies of one slab's 3,200 bytes, so its histogram is flat (≈ 7.94 bits
// per byte) while every copy after the first is one long match. A 33³
// field's 33×33 slab carries too few bits to clear the entropy gate
// (≈ 7.83 bits per byte), and the planes
// of a decomposed extruded field do not come near it: the details along
// the constant axis are exact zeros.
func extrudedPlanes(tb testing.TB, rng *rand.Rand) [][]byte {
	tb.Helper()
	slab := make([]float64, 160*160)
	for i := range slab {
		slab[i] = rng.NormFloat64()
	}
	var field []float64
	for range 4 {
		field = append(field, slab...)
	}
	enc, err := bitplane.EncodeLevel(field, 32, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer enc.Release()
	planes := make([][]byte, len(enc.Bits))
	for k, p := range enc.Bits {
		planes[k] = bytes.Clone(p)
	}
	return planes
}

// storedLen is the size of n bytes written as stored blocks: five header
// bytes per block of up to 65,535 bytes, and one block when n is 0.
func storedLen(n int) int {
	return n + 5*max(1, (n+maxStoredBlock-1)/maxStoredBlock)
}

// TestDeflateEffortNeverCostsBytes holds the writer's effort choice to
// level 6, the effort it replaced: on every row the chosen stream is at
// most 0.5 % larger than the level-6 stream, a stored stream is the input
// plus block headers, and both decoders read the input back.
func TestDeflateEffortNeverCostsBytes(t *testing.T) {
	stored := 0
	for _, row := range effortRows(t) {
		got, isStored, err := appendCompress(Deflate(), nil, row.in)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		level6 := deflateAt(t, row.in, 6)
		if float64(len(got)) > 1.005*float64(len(level6)) {
			t.Errorf("%s: %d-byte stream (stored %v), level 6 writes %d bytes of the %d-byte input",
				row.name, len(got), isStored, len(level6), len(row.in))
		}
		if isStored {
			stored++
			if len(got) != storedLen(len(row.in)) {
				t.Errorf("%s: stored stream is %d bytes, want %d", row.name, len(got), storedLen(len(row.in)))
			}
		}
		for name, decode := range map[string]func([]byte, int) ([]byte, error){"inflate": inflate, "compress/flate": stdlibInflate} {
			if dec, err := decode(got, len(row.in)); err != nil || !bytes.Equal(dec, row.in) {
				t.Errorf("%s: %s does not read the stream back (err %v)", row.name, name, err)
			}
		}
	}
	if stored == 0 {
		t.Error("no row went out stored; the noise plane should")
	}
}

// TestStoredStreamSpansBlocks: past 65,535 bytes a stored stream is split
// into blocks, only the last final, and stays readable by both decoders.
func TestStoredStreamSpansBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{maxStoredBlock, maxStoredBlock + 1, 3*maxStoredBlock + 7} {
		in := make([]byte, n)
		rng.Read(in)
		got, stored, err := appendCompress(Deflate(), []byte("prefix"), in)
		if err != nil || !stored {
			t.Fatalf("%d random bytes: stored %v, err %v", n, stored, err)
		}
		if !bytes.HasPrefix(got, []byte("prefix")) || len(got) != len("prefix")+storedLen(n) {
			t.Fatalf("%d random bytes: appended %d bytes after the prefix, want %d", n, len(got)-len("prefix"), storedLen(n))
		}
		got = got[len("prefix"):]
		for name, decode := range map[string]func([]byte, int) ([]byte, error){"inflate": inflate, "compress/flate": stdlibInflate} {
			if dec, err := decode(got, n); err != nil || !bytes.Equal(dec, in) {
				t.Fatalf("%d random bytes: %s does not read the stream back (err %v)", n, name, err)
			}
		}
	}
}

// TestCompressInstrumentsCountStored: the streaming pipeline's instruments
// count every segment, and the DEFLATE segments that went out stored apart.
func TestCompressInstrumentsCountStored(t *testing.T) {
	o := obs.New()
	ci := NewCompressInstruments(o)
	planes := planesOrFatal(t)
	for _, name := range []string{"sparse", "mid", "noise"} {
		if _, err := ci.AppendCompress(Deflate(), nil, planes[name]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ci.AppendCompress(Raw(), nil, planes["noise"]); err != nil {
		t.Fatal(err)
	}
	if got := o.Counter("lossless.segments_compressed").Value(); got != 4 {
		t.Fatalf("segments_compressed = %d, want 4", got)
	}
	if got := o.Counter("lossless.segments_stored").Value(); got != 1 {
		t.Fatalf("segments_stored = %d, want 1 (the noise plane)", got)
	}
}

// BenchmarkCompress writes real plane segments at the effort the writer
// chooses, beside a pooled level-6 writer (the effort it replaced), and
// prices the probe that makes the choice on its own.
func BenchmarkCompress(b *testing.B) {
	planes := planesOrFatal(b)
	level6, err := flate.NewWriter(io.Discard, 6)
	if err != nil {
		b.Fatal(err)
	}
	table := make([]uint64, 1<<repeatHashBits)
	for _, kind := range []string{"sparse", "mid", "noise"} {
		plane := planes[kind]
		dst := make([]byte, 0, storedLen(len(plane)))
		for _, impl := range []struct {
			name string
			fn   func()
		}{
			{"chosen", func() { AppendCompress(Deflate(), dst, plane) }},
			{"level6", func() {
				level6.Reset(io.Discard)
				level6.Write(plane)
				level6.Close()
			}},
			{"probe", func() { _ = byteEntropy(plane) >= storedEntropy && !repeats(plane, table) }},
		} {
			b.Run(kind+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(plane)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					impl.fn()
				}
			})
		}
	}
}
