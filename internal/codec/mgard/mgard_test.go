package mgard

import (
	"math"
	"testing"

	"pmgard/internal/codec"
	"pmgard/internal/decompose"
	"pmgard/internal/grid"
)

// TestAdapterDelegatesToDecompose pins the adapter to the lifting pipeline:
// given the same codec.Options, coefficients and amplification constants
// must match internal/decompose exactly, which is what keeps pre-interface
// artifacts byte-identical.
func TestAdapterDelegatesToDecompose(t *testing.T) {
	n := 17
	f := grid.New(n, n)
	for i := range f.Data() {
		f.Data()[i] = math.Sin(float64(i) * 0.31)
	}
	opts := codec.Options{Levels: 4, Update: true, UpdateWeight: 0.25}
	got, err := Codec{}.Decompose(f, opts, 1, nil)
	if err != nil {
		t.Fatalf("Decompose: %v", err)
	}
	want, err := decompose.Decompose(f, opts, 1, nil)
	if err != nil {
		t.Fatalf("decompose.Decompose: %v", err)
	}
	for l := 0; l < want.Levels(); l++ {
		a, b := got.Coeffs(l), want.Coeffs(l)
		if len(a) != len(b) {
			t.Fatalf("level %d length %d != %d", l, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("level %d coeff %d differs from decompose pipeline", l, i)
			}
		}
	}
	for rank := 1; rank <= 4; rank++ {
		if got, want := (Codec{}).NaiveAmplification(opts, rank), decompose.NaiveErrorAmplification(opts, rank); got != want {
			t.Fatalf("NaiveAmplification(rank=%d) = %g, want %g", rank, got, want)
		}
		if got, want := (Codec{}).TightAmplification(opts, rank), decompose.ErrorAmplification(opts, rank); got != want {
			t.Fatalf("TightAmplification(rank=%d) = %g, want %g", rank, got, want)
		}
	}
}

// TestIDIsDefault pins the backend to the registry default: headers without
// a codec tag must decode through this backend.
func TestIDIsDefault(t *testing.T) {
	if ID != codec.DefaultID {
		t.Fatalf("mgard.ID = %q, codec.DefaultID = %q", ID, codec.DefaultID)
	}
	c, err := codec.ByID("")
	if err != nil {
		t.Fatalf("ByID(\"\"): %v", err)
	}
	if c.ID() != ID {
		t.Fatalf("default backend is %q, want %q", c.ID(), ID)
	}
}
