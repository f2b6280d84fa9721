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
