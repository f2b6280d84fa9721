package core

import (
	"path/filepath"
	"testing"

	"pmgard/internal/storage"
)

func TestWriteTieredPlacementMismatch(t *testing.T) {
	f := testField(t)
	c, err := Compress(f, DefaultConfig(), "Ex", 0)
	if err != nil {
		t.Fatal(err)
	}
	hier, _ := storage.DefaultHierarchy(3) // field has 5 levels
	if err := c.WriteTiered(filepath.Join(t.TempDir(), "x"), hier); err == nil {
		t.Fatal("placement/level mismatch accepted")
	}
}
