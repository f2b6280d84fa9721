package lossless

import (
	"bytes"
	"compress/flate"
	"io"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/decompose"
	"pmgard/internal/sim/warpx"
)

// flateLevels is every level compress/flate writes, the two special ones
// first.
var flateLevels = []int{flate.HuffmanOnly, flate.NoCompression, 1, 2, 3, 4, 5, 6, 7, 8, 9}

// stdlibInflate is the acceptance rule the decoder must match: the stdlib
// reader fills exactly size bytes, and a one-byte probe past them must meet
// the end of the stream.
func stdlibInflate(src []byte, size int) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(src))
	out := make([]byte, size)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	var past [1]byte
	if n, err := r.Read(past[:]); n > 0 || err != io.EOF {
		return nil, io.ErrShortBuffer
	}
	return out, nil
}

// deflateAt compresses src at level through the stdlib writer.
func deflateAt(tb testing.TB, src []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// realPlanes returns three bit-planes of the finest level of a 33³ WarpX
// Jx field, as the compressor stores them: the sparsest non-empty plane, the
// plane whose deflate ratio is nearest ½, and the last (noise-like) plane.
var realPlanes = sync.OnceValues(func() (map[string][]byte, error) {
	field, err := warpx.DefaultConfig(33, 33, 33).Field("Jx", 0)
	if err != nil {
		return nil, err
	}
	d, err := decompose.Decompose(field, decompose.DefaultOptions(), 1, nil)
	if err != nil {
		return nil, err
	}
	enc, err := bitplane.EncodeLevel(d.Coeffs(d.Levels()-1), 32, 1, nil)
	if err != nil {
		return nil, err
	}
	defer enc.Release()
	ratio := func(p []byte) float64 {
		c, _ := Deflate().Compress(p)
		return float64(len(c)) / float64(len(p))
	}
	planes := map[string][]byte{"noise": bytes.Clone(enc.Bits[len(enc.Bits)-1])}
	sparse, mid := -1.0, -1.0
	for _, p := range enc.Bits {
		r := ratio(p)
		if bytes.Count(p, []byte{0}) < len(p) && (sparse < 0 || r < sparse) {
			sparse, planes["sparse"] = r, bytes.Clone(p)
		}
		if mid < 0 || math.Abs(r-0.5) < math.Abs(mid-0.5) {
			mid, planes["mid"] = r, bytes.Clone(p)
		}
	}
	return planes, nil
})

func planesOrFatal(tb testing.TB) map[string][]byte {
	tb.Helper()
	planes, err := realPlanes()
	if err != nil {
		tb.Fatal(err)
	}
	return planes
}

// FuzzInflateMatchesStdlib holds the decoder to compress/flate: for any
// (src, size) it accepts exactly when the stdlib reader plus the exact-size
// check does, with the same bytes, and never panics.
func FuzzInflateMatchesStdlib(f *testing.F) {
	for _, plane := range planesOrFatal(f) {
		for _, level := range flateLevels {
			f.Add(deflateAt(f, plane, level), len(plane))
		}
		// The writer's own choice: stored for the noise plane, level 5
		// for mid, level 6 for sparse.
		enc, err := AppendCompress(Deflate(), nil, plane)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, len(plane))
	}
	for _, tc := range boundaryCases(f) {
		if len(tc.src) <= 8<<10 { // big inputs make minimizing crawl
			f.Add(tc.src, tc.size)
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, size int) {
		// No stream inflates past maxDeflateRatio bytes per input byte, so
		// larger sizes only allocate: fold them back into reach.
		if reach := min(maxDeflateRatio*len(src)+1, 1<<20); size < 0 || size > reach {
			size = int(uint(size) % uint(reach+1))
		}
		want, wantErr := stdlibInflate(src, size)
		got, err := inflate(src, size)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("size %d: inflate error %v, stdlib error %v", size, err, wantErr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: inflate and stdlib decode different bytes", size)
		}
	})
}

// bitWriter assembles DEFLATE streams bit by bit, for the cases no encoder
// writes on purpose.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

// bits appends the low n bits of v, least significant first.
func (w *bitWriter) bits(v uint64, n uint) *bitWriter {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
	return w
}

// code appends an n-bit Huffman code, most significant bit first.
func (w *bitWriter) code(c int, n uint) *bitWriter { return w.bits(uint64(reverse(c, n)), n) }

// fixed appends fixed-Huffman literal/length symbol s.
func (w *bitWriter) fixed(s int) *bitWriter {
	switch {
	case s < 144:
		return w.code(0x30+s, 8)
	case s < 256:
		return w.code(0x190+s-144, 9)
	case s < 280:
		return w.code(s-256, 7)
	default:
		return w.code(0xc0+s-280, 8)
	}
}

// match appends a fixed-Huffman (length, distance) pair.
func (w *bitWriter) match(length, dist int) *bitWriter {
	s := 285
	for int(litVals[s]>>16) > length {
		s--
	}
	v := litVals[s]
	w.fixed(s).bits(uint64(length-int(v>>16)), uint(v>>8&15))
	c := 29
	for int(distVals[c]>>16) > dist {
		c--
	}
	v = distVals[c]
	return w.code(c, 5).bits(uint64(dist-int(v>>16)), uint(v>>8&15))
}

// stored appends a stored block holding data; final is the BFINAL bit.
func (w *bitWriter) stored(final uint64, data []byte) *bitWriter {
	w.bits(final, 3)
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
	n := len(data)
	w.bits(uint64(n), 16).bits(uint64(^uint16(n)), 16)
	w.out = append(w.out, data...)
	return w
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(bytes.Clone(w.out), byte(w.acc))
	}
	return w.out
}

type boundaryCase struct {
	name string
	src  []byte
	size int
	want []byte // nil: the stream must be refused
}

// boundaryCases are the streams at the edges of RFC 1951 and of the
// exact-size contract, each with the outcome compress/flate gives it.
func boundaryCases(tb testing.TB) []boundaryCase {
	rng := rand.New(rand.NewSource(3))
	random := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	var cases []boundaryCase
	ok := func(name string, src, want []byte) {
		cases = append(cases, boundaryCase{name, src, len(want), want})
	}
	bad := func(name string, src []byte, size int) {
		cases = append(cases, boundaryCase{name, src, size, nil})
	}

	for name, plane := range planesOrFatal(tb) {
		for _, level := range flateLevels {
			enc := deflateAt(tb, plane, level)
			ok(name+"/level"+strconv.Itoa(level), enc, plane)
			bad(name+"/level"+strconv.Itoa(level)+"/size-1", enc, len(plane)-1)
			bad(name+"/level"+strconv.Itoa(level)+"/size+1", enc, len(plane)+1)
			bad(name+"/level"+strconv.Itoa(level)+"/truncated", enc[:len(enc)-1], len(plane))
			bad(name+"/level"+strconv.Itoa(level)+"/half", enc[:len(enc)/2], len(plane))
		}
	}
	ok("empty", deflateAt(tb, nil, 6), []byte{})
	bad("empty/size+1", deflateAt(tb, nil, 6), 1)
	bad("no input", nil, 0)

	text := []byte("progressive retrieval of progressive planes")
	if enc := deflateAt(tb, text, 6); enc[0]>>1&3 != 1 {
		tb.Fatalf("short text did not deflate to a fixed-Huffman block (header %#x)", enc[0])
	} else {
		ok("fixed block", enc, text)
	}
	ok("fixed block/literals and match", new(bitWriter).bits(3, 3).
		fixed('a').fixed('b').fixed('c').match(6, 3).fixed(256).bytes(), []byte("abcabcabc"))

	// Sync flushes end a block with an empty stored block, mid-stream.
	var multi bytes.Buffer
	w, _ := flate.NewWriter(&multi, 6)
	var whole []byte
	for i := 0; i < 3; i++ {
		chunk := append(random(1000), bytes.Repeat([]byte{byte(i)}, 3000)...)
		whole = append(whole, chunk...)
		w.Write(chunk)
		w.Flush()
	}
	w.Close()
	ok("multi-block/sync flushes", multi.Bytes(), whole)
	long := bytes.Repeat(planesOrFatal(tb)["mid"], 60)
	ok("multi-block/long input", deflateAt(tb, long, 6), long)

	full := random(65535)
	enc := new(bitWriter).stored(1, full).bytes()
	ok("stored 65535", enc, full)
	bad("stored 65535/truncated", enc[:len(enc)-1], len(full))
	bad("stored/len check", []byte{1, 3, 0, 0xfd, 0xff, 1, 2, 3}, 3)
	ok("stored/trailing bytes ignored", []byte{1, 3, 0, 0xfc, 0xff, 1, 2, 3, 9, 9}, []byte{1, 2, 3})
	ok("stored/empty then final", new(bitWriter).stored(0, nil).stored(1, []byte{7}).bytes(), []byte{7})

	window := random(32768)
	far := new(bitWriter).stored(0, window).bits(3, 3).match(258, 32768).fixed(256).bytes()
	ok("distance 32768, length 258", far, append(bytes.Clone(window), window[:258]...))
	tooFar := new(bitWriter).stored(0, window[1:]).bits(3, 3).match(258, 32768).fixed(256).bytes()
	bad("distance past the start", tooFar, 32767+258)
	ok("length 258 via 284+31", new(bitWriter).bits(3, 3).fixed('z').fixed(284).bits(31, 5).code(0, 5).fixed(256).bytes(),
		bytes.Repeat([]byte{'z'}, 259))

	for d := 1; d <= 3; d++ {
		w := new(bitWriter).bits(3, 3)
		for _, c := range []byte("xyz")[:d] {
			w.fixed(int(c))
		}
		w.match(258, d)
		for i := 0; i < 10; i++ {
			w.match(3, d)
		}
		want := bytes.Repeat([]byte("xyz")[:d], 300)[:d+258+30]
		ok("overlap distance "+strconv.Itoa(d), w.fixed(256).bytes(), want)
	}

	bad("reserved block type", []byte{7, 0, 0, 0}, 0)
	bad("fixed/distance code 30", new(bitWriter).bits(3, 3).fixed('a').fixed(257).code(30, 5).fixed(256).bytes(), 4)
	bad("fixed/distance code 31", new(bitWriter).bits(3, 3).fixed('a').fixed(257).code(31, 5).fixed(256).bytes(), 4)
	bad("fixed/length code 286", new(bitWriter).bits(3, 3).fixed('a').fixed(286).code(0, 5).fixed(256).bytes(), 4)
	bad("fixed/no end of block", new(bitWriter).bits(3, 3).fixed('a').bytes(), 1)
	bad("fixed/overflow by a match", new(bitWriter).bits(3, 3).fixed('a').match(3, 1).fixed(256).bytes(), 3)

	// Dynamic headers: a code-length code of four 2-bit codes for symbols
	// 0, 16, 17 and 18 (canonical codes 00, 01, 10, 11).
	clen := func(hlit, hdist int) *bitWriter {
		return new(bitWriter).bits(5, 3).bits(uint64(hlit), 5).bits(uint64(hdist), 5).bits(0, 4).
			bits(2, 3).bits(2, 3).bits(2, 3).bits(2, 3)
	}
	bad("dynamic/repeat before any length", clen(0, 0).code(1, 2).bits(0, 2).bytes(), 0)
	bad("dynamic/repeat past the end", clen(0, 0).code(3, 2).bits(127, 7).code(3, 2).bits(127, 7).
		code(3, 2).bits(127, 7).bytes(), 0)
	// Zero lengths for the whole literal/length alphabet: an empty code,
	// accepted by the header and unusable by the block.
	bad("dynamic/empty literal code", clen(0, 0).code(3, 2).bits(127, 7).code(3, 2).bits(109, 7).
		bits(0, 16).bytes(), 0)
	// A lone one-bit distance code (symbol 0, code 0), the incomplete code
	// stdlib accepts: code 0 decodes, code 1 is refused.
	ok("dynamic/lone one-bit distance code", loneDistance(1, 0, 0, true), []byte("aaaa"))
	bad("dynamic/lone one-bit distance code, unused half", loneDistance(1, 0, 1, true), 4)
	ok("dynamic/HLIT 286, HDIST 30", loneDistance(29, 29, 0, true), []byte("aaaa"))
	bad("dynamic/HLIT 287", loneDistance(30, 0, 0, true), 4)
	bad("dynamic/HDIST 31", loneDistance(1, 30, 0, true), 4)
	// Without symbol 17, three 2-bit code-length codes leave that code
	// incomplete, though the block would decode.
	bad("dynamic/incomplete code-length code", loneDistance(1, 0, 0, false), 4)
	return cases
}

// loneDistance is a dynamic block of hlit+257 literal/length and hdist+1
// distance lengths. The literal/length code is 'a' = 0, end of block = 10
// and length 3 = 11; the distance code is symbol 0 alone, with code 0. The
// block writes 'a', then a length-3 match whose distance code is distBit.
// The code-length code gives symbols 1, 2, 18 and, with17, 17 two bits each.
func loneDistance(hlit, hdist int, distBit uint64, with17 bool) []byte {
	w := new(bitWriter).bits(5, 3).bits(uint64(hlit), 5).bits(uint64(hdist), 5).bits(14, 4)
	for _, s := range codeOrder[:18] {
		switch {
		case s == 1 || s == 2 || s == 18 || s == 17 && with17:
			w.bits(2, 3)
		default:
			w.bits(0, 3)
		}
	}
	code18 := 2 // canonical 00, 01, 10 for 1, 2, 18; 00, 01, 10, 11 with 17
	if with17 {
		code18 = 3
	}
	zeros := func(n int) {
		switch {
		case n >= 11:
			w.code(code18, 2).bits(uint64(n-11), 7)
		case n >= 3:
			w.code(2, 2).bits(uint64(n-3), 3)
		}
	}
	zeros(97)               // symbols 0–96
	w.code(0, 2)            // 'a': length 1
	zeros(138)              // 98–235
	zeros(20)               // 236–255
	w.code(1, 2).code(1, 2) // 256, 257: length 2
	zeros(hlit - 1)         // 258 to the last literal/length symbol
	w.code(0, 2)            // distance 0: length 1
	zeros(hdist)            // the other distances
	return w.code(0, 1).code(3, 2).bits(distBit, 1).code(2, 2).bytes()
}

// TestInflateBoundaries runs every boundary case through the decoder and
// the stdlib reference: both must give the row's outcome.
func TestInflateBoundaries(t *testing.T) {
	for _, tc := range boundaryCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			ref, refErr := stdlibInflate(tc.src, tc.size)
			if (refErr == nil) != (tc.want != nil) || !bytes.Equal(ref, tc.want) {
				t.Fatalf("the row disagrees with compress/flate (error %v)", refErr)
			}
			got, err := inflate(tc.src, tc.size)
			if tc.want == nil {
				if err == nil {
					t.Fatal("accepted a stream compress/flate refuses")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.want) {
				t.Fatal("decoded different bytes")
			}
		})
	}
}

// BenchmarkDecompress inflates real plane segments at the store's level,
// beside the stdlib reader with the same exact-size check.
func BenchmarkDecompress(b *testing.B) {
	planes := planesOrFatal(b)
	for _, kind := range []string{"sparse", "mid", "noise"} {
		plane := planes[kind]
		enc, err := Deflate().Compress(plane)
		if err != nil {
			b.Fatal(err)
		}
		for _, impl := range []struct {
			name string
			fn   func([]byte, int) ([]byte, error)
		}{{"inflate", Deflate().Decompress}, {"stdlib", stdlibInflate}} {
			b.Run(kind+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(plane)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := impl.fn(enc, len(plane)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestInflateConcurrent decodes from several goroutines at once: each call
// takes its own pooled inflater, and the fixed tables are only read.
func TestInflateConcurrent(t *testing.T) {
	var encs [][]byte
	var want [][]byte
	for _, plane := range planesOrFatal(t) {
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, 1, 6} {
			encs, want = append(encs, deflateAt(t, plane, level)), append(want, plane)
		}
	}
	text := []byte("progressive retrieval of progressive planes")
	encs, want = append(encs, deflateAt(t, text, 6)), append(want, text)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20*len(encs); i++ {
				k := (i + g) % len(encs)
				got, err := Deflate().Decompress(encs[k], len(want[k]))
				if err != nil || !bytes.Equal(got, want[k]) {
					t.Errorf("goroutine %d, stream %d: err %v or different bytes", g, k, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
