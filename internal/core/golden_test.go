package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pmgard/internal/grid"
	"pmgard/internal/lossless"
)

// TestStoredFormatStability pins the on-disk representation: a fixed field
// compressed with the raw codec (DEFLATE output may legitimately change
// between Go releases) must produce byte-identical segments and header
// metadata forever. If this test fails, the format version must be bumped
// and a migration documented — silent format drift corrupts archives.
func TestStoredFormatStability(t *testing.T) {
	f := grid.New(9, 9, 9)
	for i := range f.Data() {
		// Deterministic, irrational-step pattern exercising signs and scales.
		f.Data()[i] = float64((i*2654435761)%1000-500) / 37.0
	}
	cfg := DefaultConfig()
	cfg.Codec = lossless.Raw()
	c, err := Compress(f, cfg, "golden", 0)
	if err != nil {
		t.Fatal(err)
	}
	hash := sha256.New()
	h := &c.Header
	for l := range h.Levels {
		for k := 0; k < h.Planes; k++ {
			seg, err := c.Segment(context.Background(), l, k)
			if err != nil {
				t.Fatal(err)
			}
			hash.Write(seg)
		}
	}
	const want = "c041723842deafb9f3d937e7bfcd0757f259a60efc395274b4944130611b7706"
	if got := hex.EncodeToString(hash.Sum(nil)); got != want {
		t.Fatalf("stored plane bytes changed: digest %s, want %s\n"+
			"If this change is intentional, bump the format version and update the digest.", got, want)
	}
	// Header invariants that downstream readers rely on.
	if h.Planes != 32 || len(h.Levels) != 5 || h.CodecName != "raw" {
		t.Fatalf("header shape drifted: %+v", h)
	}
}
