package fieldio

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pmgard/internal/faults"
	"pmgard/internal/grid"
	"pmgard/internal/storage"
)

// writeTestField writes a deterministic field file and returns its path
// and tensor.
func writeTestField(t *testing.T, dims ...int) (string, *grid.Tensor) {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i*i%911) / 911.0
	}
	f := grid.FromSlice(data, dims...)
	path := filepath.Join(t.TempDir(), "field.bin")
	if err := Write(path, Meta{Field: "w", Timestep: 2}, f); err != nil {
		t.Fatal(err)
	}
	return path, f
}

func TestWindowReaderMeta(t *testing.T) {
	path, _ := writeTestField(t, 5, 6, 7)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m := r.Meta()
	if m.Field != "w" || m.Timestep != 2 {
		t.Fatalf("meta = %+v", m)
	}
	if len(m.Dims) != 3 || m.Dims[0] != 5 || m.Dims[1] != 6 || m.Dims[2] != 7 {
		t.Fatalf("dims = %v", m.Dims)
	}
}

// TestReadTileWindows reads a sweep of window shapes — slabs, pencils,
// interior bricks, single cells, the full field — and checks every value
// against the in-memory tensor.
func TestReadTileWindows(t *testing.T) {
	path, f := writeTestField(t, 5, 6, 7)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cases := []struct{ lo, shape []int }{
		{[]int{0, 0, 0}, []int{5, 6, 7}}, // whole field, one run
		{[]int{2, 0, 0}, []int{2, 6, 7}}, // slab: contiguous suffix
		{[]int{1, 2, 0}, []int{3, 3, 7}}, // rows contiguous
		{[]int{1, 2, 3}, []int{2, 2, 2}}, // interior brick
		{[]int{4, 5, 6}, []int{1, 1, 1}}, // single cell
		{[]int{0, 0, 3}, []int{5, 6, 4}}, // trailing partial rows
	}
	for _, c := range cases {
		n := 1
		for _, s := range c.shape {
			n *= s
		}
		dst := make([]float64, n)
		if err := r.ReadTile(c.lo, c.shape, dst); err != nil {
			t.Fatalf("lo=%v shape=%v: %v", c.lo, c.shape, err)
		}
		want := f.Slice(c.lo, addShape(c.lo, c.shape))
		if got := grid.MaxAbsDiff(grid.FromSlice(dst, c.shape...), want); got != 0 {
			t.Fatalf("lo=%v shape=%v: max diff %g", c.lo, c.shape, got)
		}
	}
}

func addShape(lo, shape []int) []int {
	hi := make([]int, len(lo))
	for d := range lo {
		hi[d] = lo[d] + shape[d]
	}
	return hi
}

func TestReadTileValidation(t *testing.T) {
	path, _ := writeTestField(t, 4, 4)
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dst := make([]float64, 4)
	for _, c := range []struct{ lo, shape []int }{
		{[]int{0}, []int{4}},        // wrong rank
		{[]int{3, 0}, []int{2, 2}},  // overruns dim 0
		{[]int{0, 0}, []int{0, 4}},  // empty extent
		{[]int{-1, 0}, []int{2, 2}}, // negative origin
	} {
		if err := r.ReadTile(c.lo, c.shape, dst); err == nil {
			t.Errorf("lo=%v shape=%v: accepted invalid window", c.lo, c.shape)
		}
	}
	if err := r.ReadTile([]int{0, 0}, []int{2, 2}, make([]float64, 3)); err == nil {
		t.Error("accepted mis-sized dst")
	}
}

// TestReadTileTruncatedFile is the satellite-#3 core case: a field file
// cut off mid-payload must fail window reads that touch the missing tail
// with an error wrapping storage.ErrCorrupt, while windows entirely
// inside the surviving prefix still succeed.
func TestReadTileTruncatedFile(t *testing.T) {
	path, f := writeTestField(t, 4, 4, 4)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the last 1.5 slabs' worth of payload.
	if err := os.Truncate(path, fi.Size()-8*24); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	dst := make([]float64, 16)
	err = r.ReadTile([]int{3, 0, 0}, []int{1, 4, 4}, dst)
	if err == nil {
		t.Fatal("read of truncated slab succeeded")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("truncated read error %v does not wrap storage.ErrCorrupt", err)
	}
	if errors.Is(err, storage.ErrTransient) {
		t.Fatalf("truncation misclassified as transient: %v", err)
	}
	// The surviving prefix reads clean.
	if err := r.ReadTile([]int{0, 0, 0}, []int{2, 4, 4}, make([]float64, 32)); err != nil {
		t.Fatalf("prefix slab: %v", err)
	}
	got := make([]float64, 16)
	if err := r.ReadTile([]int{1, 0, 0}, []int{1, 4, 4}, got); err != nil {
		t.Fatal(err)
	}
	want := f.Slice([]int{1, 0, 0}, []int{2, 4, 4})
	if d := grid.MaxAbsDiff(grid.FromSlice(got, 1, 4, 4), want); d != 0 {
		t.Fatalf("prefix slab differs by %g", d)
	}
}

func TestReadTileTruncatedHeader(t *testing.T) {
	path, _ := writeTestField(t, 4, 4)
	// Cut inside the header line itself.
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	_, err := OpenReader(path)
	if err == nil {
		t.Fatal("opened file with truncated header")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("header truncation error %v does not wrap storage.ErrCorrupt", err)
	}
}

// TestReadTileFaultInjection drives the windowed reader through
// faults.WrapReaderAt: injected truncation becomes a short read the
// reader classifies as corruption; injected transient errors pass
// through with their storage.ErrTransient class intact.
func TestReadTileFaultInjection(t *testing.T) {
	path, _ := writeTestField(t, 8, 8, 8)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	t.Run("truncate", func(t *testing.T) {
		far := faults.WrapReaderAt(f, faults.Config{Seed: 11, TruncateRate: 1}, nil)
		r, err := NewWindowReader(f) // parse header clean, then swap in faults
		if err != nil {
			t.Fatal(err)
		}
		r.r = far
		err = r.ReadTile([]int{0, 0, 0}, []int{2, 8, 8}, make([]float64, 128))
		if err == nil {
			t.Fatal("read through always-truncating reader succeeded")
		}
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("injected truncation error %v does not wrap storage.ErrCorrupt", err)
		}
		if far.Stats().Truncated == 0 {
			t.Fatal("injector recorded no truncations")
		}
	})

	t.Run("transient", func(t *testing.T) {
		far := faults.WrapReaderAt(f, faults.Config{Seed: 7, TransientRate: 1}, nil)
		r, err := NewWindowReader(f)
		if err != nil {
			t.Fatal(err)
		}
		r.r = far
		err = r.ReadTile([]int{0, 0, 0}, []int{1, 8, 8}, make([]float64, 64))
		if err == nil {
			t.Fatal("read through always-failing reader succeeded")
		}
		if !errors.Is(err, storage.ErrTransient) {
			t.Fatalf("injected transient error %v does not wrap storage.ErrTransient", err)
		}
		if errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("transient misclassified as corrupt: %v", err)
		}
		// Deterministic replay: a second wrapper with the same seed injects
		// the identical sequence.
		first := err
		far2 := faults.WrapReaderAt(f, faults.Config{Seed: 7, TransientRate: 1}, nil)
		r2, err := NewWindowReader(f)
		if err != nil {
			t.Fatal(err)
		}
		r2.r = far2
		err2 := r2.ReadTile([]int{0, 0, 0}, []int{1, 8, 8}, make([]float64, 64))
		if fmt.Sprint(first) != fmt.Sprint(err2) {
			t.Fatalf("fault sequence not deterministic:\n  %v\n  %v", first, err2)
		}
	})
}

// TestTileWriterRoundTrip writes a field tile by tile — out of order —
// and checks the result is byte-identical to the batch Write path.
func TestTileWriterRoundTrip(t *testing.T) {
	refPath, f := writeTestField(t, 6, 5, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "tiled.bin")
	w, err := CreateSized(path, Meta{Field: "w", Timestep: 2, Dims: []int{6, 5, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order slabs plus an interior brick overlap-free partition.
	tiles := []struct{ lo, shape []int }{
		{[]int{4, 0, 0}, []int{2, 5, 4}},
		{[]int{0, 0, 0}, []int{2, 5, 4}},
		{[]int{2, 0, 0}, []int{2, 5, 4}},
	}
	for _, c := range tiles {
		src := f.Slice(c.lo, addShape(c.lo, c.shape))
		if err := w.WriteTile(c.lo, c.shape, src.Data()); err != nil {
			t.Fatalf("lo=%v: %v", c.lo, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || string(got) != string(want) {
		t.Fatalf("tiled file differs from batch file (%d vs %d bytes)", len(got), len(want))
	}
	// And it reads back through the normal reader.
	_, rec, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := grid.MaxAbsDiff(f, rec); d != 0 {
		t.Fatalf("round trip differs by %g", d)
	}
}

// TestTileAllocAccounting checks the live/peak byte accounting the
// memory-budget assertions key off.
func TestTileAllocAccounting(t *testing.T) {
	var a TileAlloc
	b1 := a.Get(100)
	b2 := a.Get(50)
	if got := a.LiveBytes(); got != 8*150 {
		t.Fatalf("live = %d, want %d", got, 8*150)
	}
	a.Put(b1)
	if got := a.LiveBytes(); got != 8*50 {
		t.Fatalf("live after put = %d, want %d", got, 8*50)
	}
	b3 := a.Get(200)
	a.Put(b2)
	a.Put(b3)
	if got := a.LiveBytes(); got != 0 {
		t.Fatalf("live after all puts = %d, want 0", got)
	}
	if got := a.PeakBytes(); got != 8*250 {
		t.Fatalf("peak = %d, want %d", got, 8*250)
	}
	// nil allocator still vends buffers.
	var nilA *TileAlloc
	b := nilA.Get(10)
	if len(b) != 10 {
		t.Fatalf("nil alloc returned %d values", len(b))
	}
	nilA.Put(b)
	if nilA.PeakBytes() != 0 || nilA.LiveBytes() != 0 {
		t.Fatal("nil alloc accounted bytes")
	}
}
