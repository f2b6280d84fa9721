// Out-of-core tiled compression: a field too large for RAM is split into
// slabs along its slowest axis, each slab streamed from disk through the
// windowed fieldio reader, compressed independently through the streaming
// pipeline, and written as its own progressive artifact next to a
// tiles.json manifest. Peak memory is bounded by the slab size — derived
// from an explicit byte budget — not by the field size, and a depth-1
// readahead goroutine keeps the pipeline fed while the next slab loads.
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"pmgard/internal/fieldio"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
)

// tileManifestName is the per-directory manifest file of a tiled artifact.
const tileManifestName = "tiles.json"

// pipelineFactor is the memory head-room multiplier between the slab size
// and the byte budget: at any instant up to two slab buffers are live
// (one compressing, one in readahead) plus roughly one slab's worth of
// decomposition coefficients and bounded encoder scratch.
const pipelineFactor = 4

// minSlabThickness keeps slabs thick enough that the multilevel transform
// has structure to work with even under tiny budgets.
const minSlabThickness = 4

// TileOptions configures out-of-core tiled compression.
type TileOptions struct {
	// MemBudget caps the pipeline's working-set bytes; the slab thickness
	// is derived from it. 0 means no budget: the whole field becomes one
	// tile.
	MemBudget int64
	// SlabThickness, when > 0, fixes the slab extent along axis 0
	// directly and overrides MemBudget's derivation.
	SlabThickness int
	// Alloc accounts tile-buffer bytes; its peak is the hook budget tests
	// assert against. Nil allocates without accounting.
	Alloc *fieldio.TileAlloc
}

// TileInfo describes one stored tile of a tiled artifact.
type TileInfo struct {
	// Lo is the tile's origin in the field's index space.
	Lo []int `json:"lo"`
	// Shape is the tile's extent per dimension.
	Shape []int `json:"shape"`
	// File is the tile's artifact file name, relative to the manifest.
	File string `json:"file"`
	// Bytes is the tile's stored payload size.
	Bytes int64 `json:"bytes"`
}

// TileSet is the manifest of a tiled artifact.
type TileSet struct {
	// Field and Timestep identify the source field.
	Field    string `json:"field"`
	Timestep int    `json:"timestep"`
	// Dims is the full field's extent.
	Dims []int `json:"dims"`
	// ValueRange is the global max-min across the whole field — not any
	// single tile's — so relative error bounds convert to one absolute
	// tolerance shared by every tile.
	ValueRange float64 `json:"value_range"`
	// Tiles lists the slabs in ascending axis-0 order.
	Tiles []TileInfo `json:"tiles"`
}

// TotalBytes returns the stored payload bytes across all tiles.
func (ts *TileSet) TotalBytes() int64 {
	var total int64
	for _, ti := range ts.Tiles {
		total += ti.Bytes
	}
	return total
}

// slabPlan derives the slab thickness along axis 0 from the options.
func slabPlan(dims []int, opts TileOptions) (int, error) {
	if opts.SlabThickness > 0 {
		return min(opts.SlabThickness, dims[0]), nil
	}
	if opts.MemBudget <= 0 {
		return dims[0], nil
	}
	rowArea := int64(1)
	for _, d := range dims[1:] {
		rowArea *= int64(d)
	}
	thickness := opts.MemBudget / (pipelineFactor * 8 * rowArea)
	if thickness < minSlabThickness {
		thickness = minSlabThickness
	}
	if need := pipelineFactor * 8 * rowArea * thickness; need > opts.MemBudget && thickness == minSlabThickness {
		// The budget cannot hold even the thinnest slab's working set;
		// refuse rather than silently overshoot.
		if 2*8*rowArea*minSlabThickness > opts.MemBudget {
			return 0, fmt.Errorf("core: mem budget %d bytes cannot hold two %d-row slabs (%d bytes each)",
				opts.MemBudget, minSlabThickness, 8*rowArea*minSlabThickness)
		}
	}
	return min(int(thickness), dims[0]), nil
}

// loadedSlab is one slab read ahead of the compressor.
type loadedSlab struct {
	lo    []int
	shape []int
	data  []float64
	err   error
}

// CompressTiled compresses the field behind r into a tiled artifact at
// dir: one progressive .pmgd file per slab plus a tiles.json manifest.
// The field is never materialized; peak tile-buffer bytes stay within
// opts.MemBudget (observable through opts.Alloc). Each tile compresses
// through the same streaming pipeline as CompressToFile, so per-tile
// artifacts are byte-identical to compressing that slab alone.
func CompressTiled(r *fieldio.Reader, cfg Config, dir string, opts TileOptions) (*TileSet, error) {
	meta := r.Meta()
	dims := meta.Dims
	if len(dims) == 0 {
		return nil, fmt.Errorf("core: tiled compress needs dims in the field header")
	}
	thickness, err := slabPlan(dims, opts)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create tile dir: %w", err)
	}
	alloc := opts.Alloc

	// Depth-1 readahead: the loader reads slab t+1 from disk while the
	// pipeline compresses slab t. The unbuffered channel caps live slab
	// buffers at two — the loader blocks holding the next slab until the
	// compressor takes it.
	slabs := make(chan loadedSlab)
	stop := make(chan struct{})
	go func() {
		defer close(slabs)
		for z := 0; z < dims[0]; z += thickness {
			sh := append([]int(nil), dims...)
			sh[0] = min(thickness, dims[0]-z)
			lo := make([]int, len(dims))
			lo[0] = z
			n := 1
			for _, s := range sh {
				n *= s
			}
			buf := alloc.Get(n)
			err := r.ReadTile(lo, sh, buf)
			s := loadedSlab{lo: lo, shape: sh, data: buf, err: err}
			select {
			case slabs <- s:
			case <-stop:
				alloc.Put(buf)
				return
			}
			if err != nil {
				return
			}
		}
	}()
	drain := func() {
		close(stop)
		for s := range slabs {
			alloc.Put(s.data)
		}
	}

	ts := &TileSet{
		Field:    meta.Field,
		Timestep: meta.Timestep,
		Dims:     append([]int(nil), dims...),
		Tiles:    []TileInfo{},
	}
	mn, mx := math.Inf(1), math.Inf(-1)
	idx := 0
	for s := range slabs {
		if s.err != nil {
			alloc.Put(s.data)
			drain()
			return nil, s.err
		}
		for _, v := range s.data {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
		name := fmt.Sprintf("tile_%04d.pmgd", idx)
		h, err := CompressToFile(grid.FromSlice(s.data, s.shape...), cfg, meta.Field, meta.Timestep,
			filepath.Join(dir, name))
		alloc.Put(s.data)
		if err != nil {
			drain()
			return nil, fmt.Errorf("core: tile %d: %w", idx, err)
		}
		ts.Tiles = append(ts.Tiles, TileInfo{
			Lo:    s.lo,
			Shape: s.shape,
			File:  name,
			Bytes: h.TotalBytes(),
		})
		idx++
	}
	if len(ts.Tiles) == 0 {
		return nil, fmt.Errorf("core: field has no slabs")
	}
	ts.ValueRange = mx - mn

	man, err := json.MarshalIndent(ts, "", "  ")
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(dir, tileManifestName+".tmp")
	if err := os.WriteFile(tmp, append(man, '\n'), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, tileManifestName)); err != nil {
		return nil, err
	}
	return ts, nil
}

// OpenTileSet reads and validates the manifest of a tiled artifact
// directory: a manifest is input from disk, so one that names a file
// outside the directory, or whose tiles do not partition the field into
// ascending axis-0 slabs, is rejected here rather than reconstructed with
// silent zero slabs.
func OpenTileSet(dir string) (*TileSet, error) {
	raw, err := os.ReadFile(filepath.Join(dir, tileManifestName))
	if err != nil {
		return nil, fmt.Errorf("core: open tile manifest: %w", err)
	}
	var ts TileSet
	if err := json.Unmarshal(raw, &ts); err != nil {
		return nil, fmt.Errorf("core: parse tile manifest: %w", err)
	}
	if err := ts.validate(); err != nil {
		return nil, fmt.Errorf("core: tile manifest %s: %w", filepath.Join(dir, tileManifestName), err)
	}
	return &ts, nil
}

// validate checks the manifest against what CompressTiled writes: positive
// dims, a non-negative value_range, and tiles that are bare file
// names holding full-width slabs which abut along axis 0 in ascending
// order and cover dims exactly. Errors name the offending manifest field.
func (ts *TileSet) validate() error {
	if len(ts.Tiles) == 0 || len(ts.Dims) == 0 {
		return fmt.Errorf("manifest is empty")
	}
	for _, d := range ts.Dims {
		if d < 1 {
			return fmt.Errorf("dims %v: extents must be positive", ts.Dims)
		}
	}
	// Non-finite cannot get here: encoding/json refuses every spelling of it.
	if ts.ValueRange < 0 {
		return fmt.Errorf("value_range %g: must be non-negative", ts.ValueRange)
	}
	next := 0 // the axis-0 row the next tile must start at
	for i, ti := range ts.Tiles {
		if ti.File == "" || ti.File == "." || ti.File == ".." || strings.ContainsAny(ti.File, `/\`) {
			return fmt.Errorf("tile %d file %q: must be a bare file name inside the directory", i, ti.File)
		}
		if len(ti.Lo) != len(ts.Dims) {
			return fmt.Errorf("tile %d lo %v: rank %d, dims have rank %d", i, ti.Lo, len(ti.Lo), len(ts.Dims))
		}
		if len(ti.Shape) != len(ts.Dims) {
			return fmt.Errorf("tile %d shape %v: rank %d, dims have rank %d", i, ti.Shape, len(ti.Shape), len(ts.Dims))
		}
		for a := 1; a < len(ts.Dims); a++ {
			if ti.Lo[a] != 0 || ti.Shape[a] != ts.Dims[a] {
				return fmt.Errorf("tile %d lo %v shape %v: a slab spans dims %v on every axis but 0", i, ti.Lo, ti.Shape, ts.Dims)
			}
		}
		if ti.Lo[0] != next {
			return fmt.Errorf("tile %d lo %v: starts at row %d, the previous tile ends at %d (tiles must abut in ascending order)", i, ti.Lo, ti.Lo[0], next)
		}
		if ti.Shape[0] < 1 || ti.Shape[0] > ts.Dims[0]-next {
			return fmt.Errorf("tile %d shape %v: %d rows from row %d do not fit dims %v", i, ti.Shape, ti.Shape[0], next, ts.Dims)
		}
		next += ti.Shape[0]
	}
	if next != ts.Dims[0] {
		return fmt.Errorf("tiles cover %d of %d rows of dims %v", next, ts.Dims[0], ts.Dims)
	}
	return nil
}

// TiledRetrievalStats summarizes one tiled retrieval.
type TiledRetrievalStats struct {
	// BytesFetched is the payload fetched across tiles; BytesStored the
	// total stored, so their ratio is the progressive saving.
	BytesFetched int64
	BytesStored  int64
	// Planes[t] is tile t's per-level plane plan.
	Planes []retrieval.Plan
}

// RetrieveTiledRel streams a tiled artifact back to a field file at
// outPath, tile by tile, honoring a relative error bound against the
// manifest's global value range. Peak memory is one reconstructed slab,
// not the field; the output file is laid down through the tile writer as
// slabs complete.
func RetrieveTiledRel(dir string, rel float64, outPath string, workers int) (*TileSet, *TiledRetrievalStats, error) {
	ts, err := OpenTileSet(dir)
	if err != nil {
		return nil, nil, err
	}
	tol := rel * ts.ValueRange
	w, err := fieldio.CreateSized(outPath, fieldio.Meta{Field: ts.Field, Timestep: ts.Timestep, Dims: ts.Dims})
	if err != nil {
		return nil, nil, err
	}
	stats := &TiledRetrievalStats{BytesStored: ts.TotalBytes()}
	for i, ti := range ts.Tiles {
		h, st, err := OpenFile(filepath.Join(dir, ti.File))
		if err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("core: tile %d: %w", i, err)
		}
		rec, plan, err := RetrieveTolerance(context.Background(), h, st, h.TheoryEstimator(), tol, RetrieveOptions{Workers: workers})
		st.Close()
		if err != nil {
			w.Close()
			return nil, nil, fmt.Errorf("core: tile %d: %w", i, err)
		}
		for _, b := range plan.BytesPerLevel {
			stats.BytesFetched += b
		}
		stats.Planes = append(stats.Planes, plan)
		if err := w.WriteTile(ti.Lo, ti.Shape, rec.Data()); err != nil {
			w.Close()
			return nil, nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, nil, err
	}
	return ts, stats, nil
}
