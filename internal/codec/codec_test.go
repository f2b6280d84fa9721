// The registry tests live in an external test package so they can link the
// real backends (which import codec) without an import cycle.
package codec_test

import (
	"strings"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/obs"

	_ "pmgard/internal/codec/interp"
	_ "pmgard/internal/codec/mgard"
)

// fakeCodec is a minimal registrable backend for registry tests.
type fakeCodec struct {
	codec.BitplaneCoder
	id string
}

func (f fakeCodec) ID() string { return f.id }
func (fakeCodec) Decompose(*grid.Tensor, codec.Options, int, *obs.Obs) (codec.Decomposition, error) {
	return nil, nil
}
func (fakeCodec) NewZero([]int, codec.Options, int) (codec.Decomposition, error) { return nil, nil }
func (fakeCodec) NaiveAmplification(codec.Options, int) float64                  { return 1 }
func (fakeCodec) TightAmplification(codec.Options, int) float64                  { return 1 }

func TestByIDEmptyResolvesDefault(t *testing.T) {
	c, err := codec.ByID("")
	if err != nil {
		t.Fatalf("ByID(\"\"): %v", err)
	}
	if c.ID() != codec.DefaultID {
		t.Fatalf("ByID(\"\") = %q, want %q", c.ID(), codec.DefaultID)
	}
}

func TestByIDUnknown(t *testing.T) {
	_, err := codec.ByID("no-such-backend")
	if err == nil {
		t.Fatal("unknown backend resolved")
	}
	if !strings.Contains(err.Error(), "no-such-backend") {
		t.Fatalf("error %q does not name the missing backend", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	codec.Register(fakeCodec{id: "codec-test-dup"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	codec.Register(fakeCodec{id: "codec-test-dup"})
}

func TestRegisterEmptyIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty-ID Register did not panic")
		}
	}()
	codec.Register(fakeCodec{id: ""})
}

func TestIDsSortedAndComplete(t *testing.T) {
	codec.Register(fakeCodec{id: "aaa-codec-test"})
	ids := codec.IDs()
	seen := map[string]bool{}
	for i, id := range ids {
		if i > 0 && ids[i-1] >= id {
			t.Fatalf("IDs() not strictly sorted: %v", ids)
		}
		seen[id] = true
	}
	for _, want := range []string{"aaa-codec-test", "mgard", "interp"} {
		if !seen[want] {
			t.Fatalf("backend %q missing from IDs(): %v", want, ids)
		}
	}
}

// TestBitplaneCoderMatchesBitplane pins the embeddable coder to the shared
// kernels: same planes, same error matrix, same partial decode.
func TestBitplaneCoderMatchesBitplane(t *testing.T) {
	coeffs := []float64{1.5, -2.25, 0.125, 3.75, -0.5, 0}
	var bc codec.BitplaneCoder
	got, err := bc.EncodeLevel(coeffs, 16, 1, nil)
	if err != nil {
		t.Fatalf("EncodeLevel: %v", err)
	}
	want, err := bitplane.EncodeLevel(coeffs, 16, bitplane.Negabinary, 1, nil)
	if err != nil {
		t.Fatalf("bitplane.EncodeLevel: %v", err)
	}
	for k := range want.Bits {
		if string(got.Bits[k]) != string(want.Bits[k]) {
			t.Fatalf("plane %d differs from bitplane kernels", k)
		}
	}
	dstGot := make([]float64, len(coeffs))
	dstWant := make([]float64, len(coeffs))
	bc.DecodeLevel(got, 8, dstGot, 1, nil)
	want.DecodePartial(8, dstWant, 1, nil)
	for i := range dstGot {
		if dstGot[i] != dstWant[i] {
			t.Fatalf("decode[%d] = %g, want %g", i, dstGot[i], dstWant[i])
		}
	}
}
