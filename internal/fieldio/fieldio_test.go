package fieldio

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pmgard/internal/grid"
)

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := grid.New(4, 5, 3)
	for i := range f.Data() {
		f.Data()[i] = rng.NormFloat64()
	}
	path := filepath.Join(t.TempDir(), "jx.field")
	meta := Meta{Field: "Jx", Timestep: 7}
	if err := Write(path, meta, f); err != nil {
		t.Fatal(err)
	}
	got, loaded, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Field != "Jx" || got.Timestep != 7 {
		t.Fatalf("meta = %+v", got)
	}
	if grid.MaxAbsDiff(f, loaded) != 0 {
		t.Fatal("payload mismatch")
	}
}

func TestSpecialValuesPreserved(t *testing.T) {
	f := grid.FromSlice([]float64{0, -0.0, math.Inf(1), math.MaxFloat64, 5e-324}, 5)
	path := filepath.Join(t.TempDir(), "x.field")
	if err := Write(path, Meta{Field: "x"}, f); err != nil {
		t.Fatal(err)
	}
	_, loaded, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f.Data() {
		if math.Float64bits(loaded.Data()[i]) != math.Float64bits(v) {
			t.Fatalf("value %d not bit-identical", i)
		}
	}
}

// TestWriteDimsMismatch refuses dims a field file cannot hold — not the
// tensor's, or failing the readers' dims check — before any file exists: a
// [2^40, 1] header must not leave an 8 TiB sparse file behind.
func TestWriteDimsMismatch(t *testing.T) {
	cases := map[string]func(path string) error{
		"write mismatch": func(path string) error {
			return Write(path, Meta{Field: "x", Dims: []int{3}}, grid.New(2, 2))
		},
		"create huge": func(path string) error {
			_, err := CreateSized(path, Meta{Field: "x", Dims: []int{1 << 40, 1}})
			return err
		},
		"create over limit": func(path string) error {
			_, err := CreateSized(path, Meta{Field: "x", Dims: []int{1 << 14, 1<<14 + 1}})
			return err
		},
		"create zero extent": func(path string) error {
			_, err := CreateSized(path, Meta{Field: "x", Dims: []int{4, 0}})
			return err
		},
		"create no dims": func(path string) error {
			_, err := CreateSized(path, Meta{Field: "x"})
			return err
		},
	}
	for name, write := range cases {
		path := filepath.Join(t.TempDir(), "x.field")
		if err := write(path); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: refused dims left a file behind (stat: %v)", name, err)
		}
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	cases := map[string][]byte{
		"nojson.field": []byte("not json\n"),
		"nodims.field": []byte(`{"field":"x"}` + "\n"),
		"baddim.field": []byte(`{"field":"x","dims":[0]}` + "\n"),
		"short.field":  []byte(`{"field":"x","dims":[4]}` + "\n\x00\x00"),
		"huge.field":   []byte(`{"field":"x","dims":[1099511627776,1]}` + "\n"),
		"noheader.bin": {},
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		os.WriteFile(path, content, 0o644)
		if _, _, err := Read(path); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, _, err := Read(filepath.Join(dir, "missing.field")); err == nil {
		t.Error("missing file accepted")
	}
}

// TestPortableConversionMatchesDirect pins the little-endian rule: the
// portable path — values converted through a staging buffer, forced here
// by clearing hostLittleEndian — writes the bytes the direct path writes,
// whole field and window by window, and reads every value back bit for bit,
// NaN payloads, signed zeros, infinities and denormals included. A window
// of short runs (an interior brick) exercises one piece per row.
func TestPortableConversionMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := grid.New(7, 6, 5)
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.MaxFloat64, 5e-324,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000000)}
	for i := range f.Data() {
		f.Data()[i] = rng.NormFloat64()
		if i%5 == 0 {
			f.Data()[i] = special[(i/5)%len(special)]
		}
	}
	brick := struct{ lo, shape []int }{[]int{1, 2, 1}, []int{4, 3, 3}}
	type result struct {
		file       []byte
		whole, win []float64
	}
	run := func(littleEndian bool) result {
		defer func(was bool) { hostLittleEndian = was }(hostLittleEndian)
		hostLittleEndian = littleEndian
		dir := t.TempDir()
		path := filepath.Join(dir, "f.field")
		if err := Write(path, Meta{Field: "f", Timestep: 1}, f); err != nil {
			t.Fatal(err)
		}
		tiled := filepath.Join(dir, "tiled.field")
		w, err := CreateSized(tiled, Meta{Field: "f", Timestep: 1, Dims: f.Dims()})
		if err != nil {
			t.Fatal(err)
		}
		for x := 0; x < 7; x++ {
			slab := f.Slice([]int{x, 0, 0}, []int{x + 1, 6, 5})
			if err := w.WriteTile([]int{x, 0, 0}, []int{1, 6, 5}, slab.Data()); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if tiledFile, err := os.ReadFile(tiled); err != nil || string(tiledFile) != string(file) {
			t.Fatalf("littleEndian=%v: slab-by-slab file differs from the whole-field file (%v)", littleEndian, err)
		}
		_, whole, err := Read(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		win := make([]float64, 4*3*3)
		if err := r.ReadTile(brick.lo, brick.shape, win); err != nil {
			t.Fatal(err)
		}
		return result{file, whole.Data(), win}
	}
	direct, portable := run(true), run(false)
	if string(direct.file) != string(portable.file) {
		t.Fatal("the portable conversion wrote other bytes than the direct path")
	}
	want := f.Slice(brick.lo, addShape(brick.lo, brick.shape)).Data()
	for _, got := range []result{direct, portable} {
		for i, v := range f.Data() {
			if math.Float64bits(got.whole[i]) != math.Float64bits(v) {
				t.Fatalf("whole-field read: value %d is %x, wrote %x", i, math.Float64bits(got.whole[i]), math.Float64bits(v))
			}
		}
		for i, v := range want {
			if math.Float64bits(got.win[i]) != math.Float64bits(v) {
				t.Fatalf("window read: value %d is %x, wrote %x", i, math.Float64bits(got.win[i]), math.Float64bits(v))
			}
		}
	}
}
