package core

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"testing"

	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// compressWorkingSet names the environment variable under which the
// re-executed test binary compresses the measured field once and prints
// what the compression allocated.
const compressWorkingSet = "PMGARD_CORE_COMPRESS_WORKING_SET"

// TestCompressToWorkingSet bounds what one CompressTo of a 65³ field
// allocates: the transform's copy of the field, which the finest level's
// stream then lives in, the coarser levels, one level encoding and one
// window of segment buffers — at most 3× the field's raw bytes. The
// compression runs in a fresh process (this test binary, re-executed), so
// no buffer an earlier test left in bufpool can hide an allocation.
func TestCompressToWorkingSet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	if os.Getenv(compressWorkingSet) != "" {
		fmt.Println(compressToWorkingSet())
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCompressToWorkingSet$")
	cmd.Env = append(os.Environ(), compressWorkingSet+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("re-executed compress: %v\n%s", err, out)
	}
	var allocated, raw uint64
	if _, err := fmt.Sscanf(string(out), "allocated %d of %d", &allocated, &raw); err != nil {
		t.Fatalf("re-executed compress printed %q", out)
	}
	ratio := float64(allocated) / float64(raw)
	t.Logf("CompressTo of 65³ allocated %d bytes, %.2f× the raw %d", allocated, ratio, raw)
	if ratio > 3.0 {
		t.Fatalf("CompressTo allocated %.2f× the field's raw bytes, want ≤ 3×", ratio)
	}
}

// compressToWorkingSet compresses a 65³ WarpX field into a sink that keeps
// nothing, with collection off, and reports the bytes the compression
// allocated beside the field's raw bytes. It runs on one worker and one P:
// sync.Pool caches per P, so a buffer put back on one P can be missed by a
// Get on another, and the count would move with scheduling.
func compressToWorkingSet() string {
	f, err := warpx.DefaultConfig(65, 65, 65).Field("Jx", 4)
	if err != nil {
		return err.Error()
	}
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(-1)
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = CompressTo(f, cfg, "Jx", 4, discardSink{})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("allocated %d of %d", after.TotalAlloc-before.TotalAlloc, 8*len(f.Data()))
}

// discardSink takes every segment and keeps none.
type discardSink struct{}

func (discardSink) WriteSegment(storage.SegmentID, []byte) error { return nil }
