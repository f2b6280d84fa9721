package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/bufpool"
	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/storage"
)

// TestCompressToFileGoldenEquivalence extends the golden equivalence
// contract to the streaming path: the file CompressToFile streams to disk
// must be byte-for-byte the file the in-memory Compress + WriteFile path
// produces, at workers 1, 2, 4 and 8.
func TestCompressToFileGoldenEquivalence(t *testing.T) {
	f := seededField(77, 17, 17, 17)
	dir := t.TempDir()

	cfg := DefaultConfig()
	cfg.Parallelism = 1
	ref, err := Compress(f, cfg, "golden-stream", 3)
	if err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(dir, "ref.pmgd")
	if err := ref.WriteFile(refPath); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		path := filepath.Join(dir, "stream.pmgd")
		// CompressToFile consumes its field; each run takes a copy.
		h, err := CompressToFile(f.Clone(), cfg, "golden-stream", 3, path)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: streamed file differs from in-memory path (%d vs %d bytes)",
				workers, len(got), len(want))
		}
		if h.TotalBytes() != ref.Header.TotalBytes() {
			t.Fatalf("workers=%d: header TotalBytes %d, want %d", workers, h.TotalBytes(), ref.Header.TotalBytes())
		}
		// The streamed artifact round-trips through the normal reader.
		h2, st, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := RetrieveTolerance(context.Background(), h2, st, h2.TheoryBound(), h2.AbsTolerance(1e-4), RetrieveOptions{})
		st.Close()
		if err != nil {
			t.Fatalf("workers=%d: retrieve from streamed file: %v", workers, err)
		}
		if got := grid.MaxAbsDiff(f, rec); got > h2.AbsTolerance(1e-4) {
			t.Fatalf("workers=%d: error %g exceeds tolerance", workers, got)
		}
	}
}

// TestCompressToFileReplacesAtomically re-compresses another field to the
// path of an artifact that a Store holds open. The new file arrives in one
// rename, so the open Store keeps reading every segment of the old file
// with matching checksums, nothing but the artifact is left in the
// directory, and a fresh open reads the new field.
func TestCompressToFileReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.pmgd")
	cfg := DefaultConfig()
	old, err := CompressToFile(seededField(1, 17, 17, 17), cfg, "f", 0, path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := storage.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := CompressToFile(seededField(2, 17, 17, 17), cfg, "f", 1, path); err != nil {
		t.Fatal(err)
	}
	for l, lm := range old.Levels {
		for k, size := range lm.PlaneSizes {
			b, err := st.ReadSegment(storage.SegmentID{Level: l, Plane: k})
			if err != nil {
				t.Fatalf("old artifact, level %d plane %d after the re-compress: %v", l, k, err)
			}
			if int64(len(b)) != size {
				t.Fatalf("old artifact, level %d plane %d: %d bytes, want %d", l, k, len(b), size)
			}
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want the artifact alone", len(entries), err)
	}
	h, st2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st2.Close()
	if h.Timestep != 1 {
		t.Fatalf("reopened artifact has timestep %d, want the re-compressed field's 1", h.Timestep)
	}
}

// tieredGoldenDigest is the treeDigest of the tiered store written for the
// field of TestCompressToTieredGoldenEquivalence, with each plane deflated
// at the effort lossless.AppendCompress chooses for it — the format
// reference both tiered write paths must keep reproducing byte for byte.
const tieredGoldenDigest = "9fcc3caa10e85f27024d4ce7bb92411ebbae5e180d4d6143ee1af69cfb674a5f"

// TestCompressToTieredGoldenEquivalence pins both tiered write paths —
// Compress + WriteTiered and the streaming CompressToTiered at several
// worker counts — to the reference tree: identical level files and
// identical manifest bytes.
// TestCompressLeavesFieldIntact pins the borrowing half of the compress
// contract: Compress and CompressTo, on every backend and at one worker and
// several, leave the caller's field bit-identical, while CompressToFile,
// which consumes its field, writes the bytes CompressTo streams.
func TestCompressLeavesFieldIntact(t *testing.T) {
	for _, id := range codec.IDs() {
		for _, workers := range []int{1, 4} {
			f := seededField(5, 17, 17, 17)
			orig := f.Clone()
			cfg := DefaultConfig()
			cfg.Backend, cfg.Parallelism = id, workers
			label := fmt.Sprintf("%s workers=%d", id, workers)
			c, err := Compress(f, cfg, "f", 0)
			if err != nil {
				t.Fatalf("%s: Compress: %v", label, err)
			}
			checkBitIdentical(t, label+": Compress", f, orig)
			if _, err := CompressTo(f, cfg, "f", 0, discardSink{}); err != nil {
				t.Fatalf("%s: CompressTo: %v", label, err)
			}
			checkBitIdentical(t, label+": CompressTo", f, orig)
			path := filepath.Join(t.TempDir(), "f.pmgd")
			if _, err := CompressToFile(f, cfg, "f", 0, path); err != nil {
				t.Fatalf("%s: CompressToFile: %v", label, err)
			}
			want := filepath.Join(t.TempDir(), "want.pmgd")
			if err := c.WriteFile(want); err != nil {
				t.Fatal(err)
			}
			a, _ := os.ReadFile(path)
			b, _ := os.ReadFile(want)
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Fatalf("%s: CompressToFile of the consumed field wrote %d bytes, not Compress's %d", label, len(a), len(b))
			}
		}
	}
}

// checkBitIdentical fails unless got holds want's values bit for bit.
func checkBitIdentical(t *testing.T, label string, got, want *grid.Tensor) {
	t.Helper()
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("%s modified the caller's field at node %d: %v, was %v", label, i, v, want.Data()[i])
		}
	}
}

func TestCompressToTieredGoldenEquivalence(t *testing.T) {
	f := seededField(31, 17, 17, 17)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	c, err := Compress(f, cfg, "golden-tier", 0)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := storage.DefaultHierarchy(len(c.Header.Levels))
	if err != nil {
		t.Fatal(err)
	}
	refDir := filepath.Join(t.TempDir(), "ref")
	if err := c.WriteTiered(refDir, hier); err != nil {
		t.Fatal(err)
	}
	if got := treeDigest(t, refDir); got != tieredGoldenDigest {
		t.Fatalf("WriteTiered tree digest %s, want the format reference %s", got, tieredGoldenDigest)
	}

	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		dir := filepath.Join(t.TempDir(), "stream")
		if _, err := CompressToTiered(f.Clone(), cfg, "golden-tier", 0, dir, hier); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := treeDigest(t, dir); got != tieredGoldenDigest {
			t.Fatalf("workers=%d: CompressToTiered tree digest %s, want the format reference %s", workers, got, tieredGoldenDigest)
		}
		// The streamed tree round-trips through the normal reader.
		h, st, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		rec, _, err := RetrieveTolerance(context.Background(), h, st, h.TheoryBound(), h.AbsTolerance(1e-4), RetrieveOptions{})
		st.Close()
		if err != nil {
			t.Fatalf("workers=%d: retrieve from streamed tree: %v", workers, err)
		}
		if got := grid.MaxAbsDiff(f, rec); got > h.AbsTolerance(1e-4) {
			t.Fatalf("workers=%d: error %g exceeds tolerance", workers, got)
		}
	}
}

// treeDigest is the sha256 over a directory tree's files in sorted
// slash-separated relative-path order, each contributing
// "<path>\n<size>\n" followed by its bytes.
func treeDigest(t *testing.T, root string) string {
	t.Helper()
	var rels []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rels = append(rels, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(rels)
	sum := sha256.New()
	for _, rel := range rels {
		b, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "%s\n%d\n", rel, len(b))
		sum.Write(b)
	}
	return fmt.Sprintf("%x", sum.Sum(nil))
}

// TestCompressToSinkError checks that a failing sink aborts the pipeline
// with its error and leaves no committed file behind.
func TestCompressToSinkError(t *testing.T) {
	f := seededField(5, 9, 9, 9)
	cfg := DefaultConfig()
	cfg.Decompose.Levels = 2
	for _, workers := range []int{1, 4} {
		cfg.Parallelism = workers
		// A sink that fails on a mid-stream segment.
		sink := &failingSink{failAt: storage.SegmentID{Level: 1, Plane: 3}}
		_, err := CompressTo(f, cfg, "f", 0, sink)
		if err == nil {
			t.Fatalf("workers=%d: sink error not surfaced", workers)
		}
	}

	// A deflate error and a sink error in one window: the sink fails at
	// plane 2 of level 1 and the codec at plane 3, which shares its window
	// at every worker count. The sink error is the one a sequential run
	// hits first, so it wins; without the sink error the codec's surfaces.
	rec := &planeCodec{Codec: lossless.Deflate()}
	cfg.Codec, cfg.Parallelism = rec, 1
	if _, err := CompressTo(f, cfg, "f", 0, discardSink{}); err != nil {
		t.Fatal(err)
	}
	at := cfg.Planes + 3 // level 1, plane 3 in sequential deflate order
	for _, p := range rec.seen[:at] {
		if bytes.Equal(p, rec.seen[at]) {
			t.Fatal("plane 3 of level 1 repeats an earlier plane's bytes; pick another")
		}
	}
	cfg.Codec = &planeCodec{Codec: lossless.Deflate(), fail: rec.seen[at]}
	for _, workers := range []int{1, 2, 4, 8} {
		cfg.Parallelism = workers
		sink := &failingSink{failAt: storage.SegmentID{Level: 1, Plane: 2}}
		if _, err := CompressTo(f, cfg, "f", 0, sink); !errors.Is(err, os.ErrInvalid) {
			t.Fatalf("workers=%d: got %v, want the sink's error at the lower plane", workers, err)
		}
		if _, err := CompressTo(f, cfg, "f", 0, discardSink{}); !errors.Is(err, errPlaneCodec) {
			t.Fatalf("workers=%d: got %v, want the codec's error", workers, err)
		}
		// CompressToFile failing mid-stream leaves nothing in the directory:
		// no artifact, no spill, no temporary file.
		dir := t.TempDir()
		if _, err := CompressToFile(f.Clone(), cfg, "f", 0, filepath.Join(dir, "out.pmgd")); !errors.Is(err, errPlaneCodec) {
			t.Fatalf("workers=%d: CompressToFile got %v, want the codec's error", workers, err)
		}
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Fatalf("workers=%d: %d entries left after a failed CompressToFile (%v)", workers, len(entries), err)
		}
	}
}

var errPlaneCodec = errors.New("plane codec: planted failure")

// planeCodec is a Codec that fails on any plane whose bytes equal fail,
// and, when fail is nil, records a copy of every plane it is handed (used
// on one worker, where planes arrive in (level, plane) order).
type planeCodec struct {
	lossless.Codec
	fail []byte
	seen [][]byte
}

func (c *planeCodec) Compress(src []byte) ([]byte, error) {
	if c.fail == nil {
		c.seen = append(c.seen, append([]byte(nil), src...))
	} else if bytes.Equal(src, c.fail) {
		return nil, errPlaneCodec
	}
	return c.Codec.Compress(src)
}

type failingSink struct {
	failAt storage.SegmentID
}

func (s *failingSink) WriteSegment(id storage.SegmentID, payload []byte) error {
	if id == s.failAt {
		return os.ErrInvalid
	}
	return nil
}

// TestCompressToWindowBound checks the write path's payload bound: at
// most one window of 2 × workers deflated planes waits for the sink at any
// moment, so payload memory does not grow with the number of planes.
func TestCompressToWindowBound(t *testing.T) {
	f := seededField(9, 17, 17, 17)
	for _, workers := range []int{1, 2, 4} {
		cfg := DefaultConfig()
		cfg.Parallelism = workers
		c := &countingCodec{Codec: lossless.Deflate()}
		cfg.Codec = c
		if _, err := CompressTo(f, cfg, "f", 0, c); err != nil {
			t.Fatal(err)
		}
		if got, limit := c.peak.Load(), int64(2*workers); got > limit {
			t.Errorf("workers=%d: %d deflated planes waited for the sink at once, want ≤ %d", workers, got, limit)
		}
		if c.live.Load() != 0 {
			t.Errorf("workers=%d: %d deflated planes never reached the sink", workers, c.live.Load())
		}
	}
}

// countingCodec counts the planes it has deflated that its sink side has
// not yet taken, and the peak of that count.
type countingCodec struct {
	lossless.Codec
	live, peak atomic.Int64
}

func (c *countingCodec) Compress(src []byte) ([]byte, error) {
	n := c.live.Add(1)
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	return c.Codec.Compress(src)
}

func (c *countingCodec) WriteSegment(storage.SegmentID, []byte) error {
	c.live.Add(-1)
	return nil
}

// TestStreamingEncodeSteadyStateAllocs is the CI allocation guard for the
// streaming encode path: one steady-state pipeline cycle — encode a
// level's bit-planes, deflate each into a recycled buffer, account it, and
// release everything back to the pools — must not allocate.
func TestStreamingEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	coeffs := make([]float64, 4096)
	for i := range coeffs {
		coeffs[i] = float64(i%97) / 97.0
	}
	codec := lossless.Deflate()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycle := func() {
		enc, err := bitplane.EncodeLevel(coeffs, 32, 1, nil)
		if err != nil {
			panic(err)
		}
		raw := enc.PlaneSizeRaw()
		for k := 0; k < 32; k++ {
			dst := bufpool.Bytes(raw + raw/8 + 64)[:0]
			out, err := lossless.AppendCompress(codec, dst, enc.Bits[k])
			if err != nil {
				panic(err)
			}
			bufpool.PutBytes(out)
		}
		enc.Release()
	}
	// Warm the pools.
	for i := 0; i < 3; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("steady-state streaming encode allocates %.2f allocs/op, want 0", avg)
	}
}
