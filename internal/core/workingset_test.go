package core

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// compressWorkingSet names the environment variable under which the
// re-executed test binary compresses the measured field once and prints
// what the compression allocated; its value is a directory the compression
// may write to.
const compressWorkingSet = "PMGARD_CORE_COMPRESS_WORKING_SET"

// TestCompressToWorkingSet bounds what one CompressTo of a 65³ field
// allocates: the transform's copy of the caller's field, which the finest
// level's stream then lives in, the coarser levels, one level encoding and
// one window of segment buffers — at most 3× the field's raw bytes. The
// compression runs in a fresh process (this test binary, re-executed), so
// no buffer an earlier test left in bufpool can hide an allocation.
func TestCompressToWorkingSet(t *testing.T) {
	if os.Getenv(compressWorkingSet) != "" {
		fmt.Println(compressWorkingSetOnce(func(f *grid.Tensor, cfg Config) error {
			_, err := CompressTo(f, cfg, "Jx", 4, discardSink{})
			return err
		}))
		return
	}
	checkCompressWorkingSet(t, "TestCompressToWorkingSet", "CompressTo", 3)
}

// TestCompressToFileWorkingSet bounds what one CompressToFile of an owned
// 65³ field allocates: it consumes the field, which becomes the finest
// level's stream with no copy, so the coarser levels, one level encoding,
// one window of segment buffers and the file writer's buffers come to at
// most 2× the field's raw bytes.
func TestCompressToFileWorkingSet(t *testing.T) {
	if dir := os.Getenv(compressWorkingSet); dir != "" {
		fmt.Println(compressWorkingSetOnce(func(f *grid.Tensor, cfg Config) error {
			_, err := CompressToFile(f, cfg, "Jx", 4, filepath.Join(dir, "ws.pmgd"))
			return err
		}))
		return
	}
	checkCompressWorkingSet(t, "TestCompressToFileWorkingSet", "CompressToFile", 2)
}

// checkCompressWorkingSet re-executes the test binary on the named test with
// compressWorkingSet set to a scratch directory, and fails unless the
// compression it ran allocated at most limit × the field's raw bytes.
func checkCompressWorkingSet(t *testing.T, test, what string, limit float64) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), compressWorkingSet+"="+t.TempDir())
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("re-executed compress: %v\n%s", err, out)
	}
	var allocated, raw uint64
	if _, err := fmt.Sscanf(string(out), "allocated %d of %d", &allocated, &raw); err != nil {
		t.Fatalf("re-executed compress printed %q", out)
	}
	ratio := float64(allocated) / float64(raw)
	t.Logf("%s of 65³ allocated %d bytes, %.2f× the raw %d", what, allocated, ratio, raw)
	if ratio > limit {
		t.Fatalf("%s allocated %.2f× the field's raw bytes, want ≤ %g×", what, ratio, limit)
	}
}

// compressWorkingSetOnce runs compress once on a 65³ WarpX field, with
// collection off, and reports the bytes it allocated beside the field's raw
// bytes. It runs on one worker and one P: sync.Pool caches per P, so a
// buffer put back on one P can be missed by a Get on another, and the count
// would move with scheduling.
func compressWorkingSetOnce(compress func(*grid.Tensor, Config) error) string {
	f, err := warpx.DefaultConfig(65, 65, 65).Field("Jx", 4)
	if err != nil {
		return err.Error()
	}
	raw := 8 * len(f.Data())
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = compress(f, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("allocated %d of %d", after.TotalAlloc-before.TotalAlloc, raw)
}

// discardSink takes every segment and keeps none.
type discardSink struct{}

func (discardSink) WriteSegment(storage.SegmentID, []byte) error { return nil }
