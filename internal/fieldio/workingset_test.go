package fieldio

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"pmgard/internal/grid"
)

// workingSetFile names the environment variable under which the
// re-executed test binary reads that field file once and prints what the
// read allocated.
const workingSetFile = "PMGARD_FIELDIO_WORKING_SET_FILE"

// workingSetValue is the deterministic content of node i of the measured
// field, so the re-executed reader can check what it read.
func workingSetValue(i int) float64 { return math.Sin(float64(i) * 1e-3) }

// TestReadWorkingSet bounds what a whole-field Read allocates: the tensor
// it returns and one piece-sized staging buffer, at most 1.3× the field's
// raw bytes at 65³. The read runs in a fresh process (this test binary,
// re-executed), so no buffer an earlier test left in bufpool can hide an
// allocation.
func TestReadWorkingSet(t *testing.T) {
	if path := os.Getenv(workingSetFile); path != "" {
		fmt.Println(readWorkingSet(path))
		return
	}
	const n = 65
	f := grid.New(n, n, n)
	for i := range f.Data() {
		f.Data()[i] = workingSetValue(i)
	}
	path := filepath.Join(t.TempDir(), "ws.field")
	if err := Write(path, Meta{Field: "ws"}, f); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestReadWorkingSet$")
	cmd.Env = append(os.Environ(), workingSetFile+"="+path)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("re-executed reader: %v\n%s", err, out)
	}
	var allocated uint64
	if _, err := fmt.Sscanf(string(out), "allocated %d", &allocated); err != nil {
		t.Fatalf("re-executed reader printed %q", out)
	}
	raw := 8 * float64(len(f.Data()))
	ratio := float64(allocated) / raw
	t.Logf("Read of %d³ allocated %d bytes, %.2f× the raw %.0f", n, allocated, ratio, raw)
	if ratio > 1.3 {
		t.Fatalf("Read allocated %.2f× the field's raw bytes, want ≤ 1.3×", ratio)
	}
}

// readWorkingSet reads the field at path with collection off, checks every
// value, and reports the bytes the read allocated.
func readWorkingSet(path string) string {
	debug.SetGCPercent(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, f, err := Read(path)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err.Error()
	}
	for i, v := range f.Data() {
		if v != workingSetValue(i) {
			return fmt.Sprintf("node %d read %v, want %v", i, v, workingSetValue(i))
		}
	}
	return fmt.Sprintf("allocated %d", after.TotalAlloc-before.TotalAlloc)
}

// TestWalkCutsRunsIntoPieces pins the walk's bound: every call moves at
// most maxPiece values, the pieces of a run are adjacent in the file and in
// the window, and together they cover the window once, in order — for a
// whole field that is one long run, a slab, and windows whose runs are
// shorter than a piece.
func TestWalkCutsRunsIntoPieces(t *testing.T) {
	dims := []int{3, 5, 30011}
	l := newLayout(Meta{Dims: dims}, 100)
	windows := []struct{ lo, shape []int }{
		{[]int{0, 0, 0}, dims},
		{[]int{1, 0, 0}, []int{2, 5, 30011}},
		{[]int{0, 1, 7}, []int{3, 3, 100}},
	}
	for _, w := range windows {
		n := w.shape[0] * w.shape[1] * w.shape[2]
		next := 0
		err := l.walk(w.lo, w.shape, n, func(at int64, out int, buf []byte) error {
			if len(buf) == 0 || len(buf) > 8*maxPiece || len(buf)%8 != 0 {
				return fmt.Errorf("piece of %d bytes", len(buf))
			}
			if out != next {
				return fmt.Errorf("piece at window offset %d, want %d", out, next)
			}
			// The window node at out sits at this file offset.
			idx := []int{out / (w.shape[1] * w.shape[2]), out / w.shape[2] % w.shape[1], out % w.shape[2]}
			flat := 0
			for d := range dims {
				flat += (w.lo[d] + idx[d]) * l.strides[d]
			}
			if want := 100 + 8*int64(flat); at != want {
				return fmt.Errorf("piece at window offset %d reads file offset %d, want %d", out, at, want)
			}
			next += len(buf) / 8
			return nil
		})
		if err != nil {
			t.Fatalf("window %v+%v: %v", w.lo, w.shape, err)
		}
		if next != n {
			t.Fatalf("window %v+%v: pieces covered %d values, want %d", w.lo, w.shape, next, n)
		}
	}
}
