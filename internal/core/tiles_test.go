package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pmgard/internal/fieldio"
	"pmgard/internal/grid"
)

// writeSeededFieldFile stores a seeded field for the out-of-core tests.
func writeSeededFieldFile(t *testing.T, seed int64, dims ...int) (string, *grid.Tensor) {
	t.Helper()
	f := seededField(seed, dims...)
	path := filepath.Join(t.TempDir(), "field.bin")
	if err := fieldio.Write(path, fieldio.Meta{Field: "tiled", Timestep: 4}, f); err != nil {
		t.Fatal(err)
	}
	return path, f
}

// TestCompressTiledUnderBudget is the acceptance check for the out-of-core
// path: a field refactors under a memory budget far below its
// materialized size, with the peak asserted through the tile allocator's
// accounting hook, and the result round-trips within the requested
// relative bound.
func TestCompressTiledUnderBudget(t *testing.T) {
	dims := []int{48, 24, 24}
	path, f := writeSeededFieldFile(t, 9, dims...)
	fieldBytes := int64(8 * f.Len())
	budget := fieldBytes / 4

	r, err := fieldio.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	cfg := DefaultConfig()
	cfg.Decompose.Levels = 3
	var alloc fieldio.TileAlloc
	dir := filepath.Join(t.TempDir(), "tiles")
	ts, err := CompressTiled(r, cfg, dir, TileOptions{MemBudget: budget, Alloc: &alloc})
	if err != nil {
		t.Fatal(err)
	}
	if peak := alloc.PeakBytes(); peak > budget {
		t.Fatalf("peak tile bytes %d exceed budget %d", peak, budget)
	}
	if peak := alloc.PeakBytes(); peak >= fieldBytes/2 {
		t.Fatalf("peak tile bytes %d not far below materialized size %d", peak, fieldBytes)
	}
	if live := alloc.LiveBytes(); live != 0 {
		t.Fatalf("%d tile bytes leaked", live)
	}
	if len(ts.Tiles) < 2 {
		t.Fatalf("budget produced %d tiles, want several", len(ts.Tiles))
	}
	if ts.ValueRange != f.Range() {
		t.Fatalf("manifest range %g, want global %g", ts.ValueRange, f.Range())
	}

	// Manifest re-opens and the tiles partition the field.
	ts2, err := OpenTileSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, ti := range ts2.Tiles {
		n := 1
		for _, s := range ti.Shape {
			n *= s
		}
		covered += n
	}
	if covered != f.Len() {
		t.Fatalf("tiles cover %d of %d cells", covered, f.Len())
	}

	// Streaming retrieval honors the relative bound against the original.
	rel := 1e-4
	out := filepath.Join(t.TempDir(), "recon.bin")
	_, stats, err := RetrieveTiledRel(dir, rel, out, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BytesFetched <= 0 || stats.BytesFetched > stats.BytesStored {
		t.Fatalf("fetched %d of %d stored bytes", stats.BytesFetched, stats.BytesStored)
	}
	_, rec, err := fieldio.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	tol := rel * ts.ValueRange
	if got := grid.MaxAbsDiff(f, rec); got > tol {
		t.Fatalf("tiled round trip error %g exceeds tolerance %g", got, tol)
	}
}

// TestCompressTiledTileBytesMatchStandalone checks a tile's artifact is
// byte-identical to compressing that slab alone through CompressToFile —
// the tiled path adds orchestration, not a new format.
func TestCompressTiledTileBytesMatchStandalone(t *testing.T) {
	dims := []int{12, 9, 9}
	path, f := writeSeededFieldFile(t, 21, dims...)
	r, err := fieldio.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := DefaultConfig()
	cfg.Decompose.Levels = 2
	dir := filepath.Join(t.TempDir(), "tiles")
	ts, err := CompressTiled(r, cfg, dir, TileOptions{SlabThickness: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Tiles) != 2 {
		t.Fatalf("got %d tiles, want 2", len(ts.Tiles))
	}
	slab := f.Slice([]int{6, 0, 0}, []int{12, 9, 9})
	ref := filepath.Join(t.TempDir(), "ref.pmgd")
	if _, err := CompressToFile(slab, cfg, "tiled", 4, ref); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ts.Tiles[1].File))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("tile artifact differs from standalone compression (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCompressTiledBudgetTooSmall checks an impossible budget is refused
// up front rather than silently overshot.
func TestCompressTiledBudgetTooSmall(t *testing.T) {
	path, _ := writeSeededFieldFile(t, 3, 16, 32, 32)
	r, err := fieldio.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, err = CompressTiled(r, DefaultConfig(), t.TempDir(), TileOptions{MemBudget: 1024})
	if err == nil {
		t.Fatal("accepted a budget smaller than two minimal slabs")
	}
}

// TestCompressTiledReadError checks a truncated source fails cleanly and
// returns every tile buffer to the allocator.
func TestCompressTiledReadError(t *testing.T) {
	path, _ := writeSeededFieldFile(t, 5, 16, 8, 8)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-8*100); err != nil {
		t.Fatal(err)
	}
	r, err := fieldio.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var alloc fieldio.TileAlloc
	cfg := DefaultConfig()
	cfg.Decompose.Levels = 2
	_, err = CompressTiled(r, cfg, t.TempDir(), TileOptions{SlabThickness: 4, Alloc: &alloc})
	if err == nil {
		t.Fatal("compressing a truncated field succeeded")
	}
	if live := alloc.LiveBytes(); live != 0 {
		t.Fatalf("%d tile bytes leaked on the error path", live)
	}
}

// TestOpenTileSetRejectsMalformedManifests: tiles.json is input from disk.
// Each row rewrites one fact of a manifest CompressTiled produced and must
// be refused with an error naming the manifest field at fault — never
// opened outside the directory, never reconstructed around a gap.
func TestOpenTileSetRejectsMalformedManifests(t *testing.T) {
	path, _ := writeSeededFieldFile(t, 5, 12, 5, 5)
	r, err := fieldio.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cfg := DefaultConfig()
	cfg.Decompose.Levels = 2
	dir := filepath.Join(t.TempDir(), "tiles")
	good, err := CompressTiled(r, cfg, dir, TileOptions{SlabThickness: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(good.Tiles) != 3 {
		t.Fatalf("setup: %d tiles, want 3", len(good.Tiles))
	}
	manifest := filepath.Join(dir, tileManifestName)
	pristine, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		break_ func(ts *TileSet) any // returns what to marshal
		want   string
	}{
		{"file outside the directory", func(ts *TileSet) any { ts.Tiles[1].File = "../x.pmgd"; return ts }, "file"},
		{"absolute file", func(ts *TileSet) any { ts.Tiles[0].File = "/etc/passwd"; return ts }, "file"},
		{"empty file", func(ts *TileSet) any { ts.Tiles[2].File = ""; return ts }, "file"},
		{"dot-dot file", func(ts *TileSet) any { ts.Tiles[2].File = ".."; return ts }, "file"},
		{"lo rank", func(ts *TileSet) any { ts.Tiles[0].Lo = []int{0, 0}; return ts }, "lo"},
		{"shape rank", func(ts *TileSet) any { ts.Tiles[0].Shape = []int{4, 5, 5, 1}; return ts }, "shape"},
		{"gap along axis 0", func(ts *TileSet) any { ts.Tiles = append(ts.Tiles[:1], ts.Tiles[2:]...); return ts }, "lo"},
		{"overlap along axis 0", func(ts *TileSet) any { ts.Tiles[1].Lo[0] = 2; return ts }, "lo"},
		{"descending order", func(ts *TileSet) any { ts.Tiles[0], ts.Tiles[1] = ts.Tiles[1], ts.Tiles[0]; return ts }, "lo"},
		{"short of dims", func(ts *TileSet) any { ts.Tiles = ts.Tiles[:2]; return ts }, "cover"},
		{"past dims", func(ts *TileSet) any { ts.Tiles[2].Shape[0] = 5; return ts }, "shape"},
		{"zero-row tile", func(ts *TileSet) any { ts.Tiles[1].Shape[0] = 0; return ts }, "shape"},
		{"narrow slab", func(ts *TileSet) any { ts.Tiles[1].Shape[2] = 4; return ts }, "shape"},
		{"offset slab", func(ts *TileSet) any { ts.Tiles[1].Lo[1] = 1; return ts }, "lo"},
		{"non-positive dims", func(ts *TileSet) any { ts.Dims[1] = 0; return ts }, "dims"},
		{"negative value_range", func(ts *TileSet) any { ts.ValueRange = -1; return ts }, "value_range"},
		{"no tiles", func(ts *TileSet) any { ts.Tiles = nil; return ts }, "empty"},
		// JSON has no non-finite number; the one spelling that overflows to
		// +Inf is refused by the parser, naming the field.
		{"non-finite value_range", func(ts *TileSet) any {
			return bytes.Replace(pristine, []byte(`"value_range": `), []byte(`"value_range": 1e999, "was": `), 1)
		}, "value_range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ts TileSet
			if err := json.Unmarshal(pristine, &ts); err != nil {
				t.Fatal(err)
			}
			blob, ok := tc.break_(&ts).([]byte)
			if !ok {
				if blob, err = json.Marshal(&ts); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(manifest, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := OpenTileSet(dir)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("OpenTileSet = %v, want an error naming %q", err, tc.want)
			}
			if _, _, err := RetrieveTiledRel(dir, 1e-3, filepath.Join(t.TempDir(), "out.bin"), 1); err == nil {
				t.Fatal("RetrieveTiledRel reconstructed from the malformed manifest")
			}
		})
	}
	if err := os.WriteFile(manifest, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTileSet(dir); err != nil {
		t.Fatalf("the pristine manifest no longer opens: %v", err)
	}
}
