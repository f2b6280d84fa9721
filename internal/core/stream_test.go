package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/bufpool"
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
		h, err := CompressToFile(f, cfg, "golden-stream", 3, path)
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
		rec, _, err := RetrieveTolerance(context.Background(), h2, st, h2.TheoryEstimator(), h2.AbsTolerance(1e-4), RetrieveOptions{})
		st.Close()
		if err != nil {
			t.Fatalf("workers=%d: retrieve from streamed file: %v", workers, err)
		}
		if got := grid.MaxAbsDiff(f, rec); got > h2.AbsTolerance(1e-4) {
			t.Fatalf("workers=%d: error %g exceeds tolerance", workers, got)
		}
	}
}

// tieredGoldenDigest is the treeDigest of the tiered store the batch
// WriteTiered loop (removed in favour of the streaming writer) produced for
// the field of TestCompressToTieredGoldenEquivalence — the format reference
// both tiered write paths must keep reproducing byte for byte.
const tieredGoldenDigest = "ca832da9be976e80f197de4bd9907a15681624ae423559d5bb97f229ba162b0c"

// TestCompressToTieredGoldenEquivalence pins both tiered write paths —
// Compress + WriteTiered and the streaming CompressToTiered at several
// worker counts — to the reference tree: identical level files and
// identical manifest bytes.
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
		if _, err := CompressToTiered(f, cfg, "golden-tier", 0, dir, hier); err != nil {
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
		rec, _, err := RetrieveTolerance(context.Background(), h, st, h.TheoryEstimator(), h.AbsTolerance(1e-4), RetrieveOptions{})
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
		path := filepath.Join(t.TempDir(), "out.pmgd")
		// A sink that fails on a mid-stream segment.
		sink := &failingSink{failAt: storage.SegmentID{Level: 1, Plane: 3}}
		_, err := CompressTo(f, cfg, "f", 0, sink)
		if err == nil {
			t.Fatalf("workers=%d: sink error not surfaced", workers)
		}
		// CompressToFile with a failing segment write leaves no artifact.
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("workers=%d: artifact exists after failure", workers)
		}
	}
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
		enc, err := bitplane.EncodeLevel(coeffs, 32, bitplane.Negabinary, 1, nil)
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
