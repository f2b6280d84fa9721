// Package fieldio reads and writes raw field files: a one-line JSON header
// (field name, timestep, dimensions) followed by the little-endian float64
// payload in row-major order. cmd/gendata writes these files and cmd/mgard
// and cmd/train consume them, mirroring how simulation dumps flow into the
// compression pipeline on a real system.
//
// There is one way through a field file: a window. Read and Write move the
// whole field as one window of a Reader and a TileWriter, the same header
// parse, dims check and window walk the out-of-core paths' ReadTile and
// WriteTile take.
package fieldio

import (
	"fmt"
	"slices"

	"pmgard/internal/grid"
)

// Meta is the JSON header of a field file.
type Meta struct {
	// Field names the variable ("Jx", "Du", ...).
	Field string `json:"field"`
	// Timestep is the simulation output step.
	Timestep int `json:"timestep"`
	// Dims are the grid dimensions, row-major.
	Dims []int `json:"dims"`
}

// maxElements bounds a field's element count (2 GiB of payload): a header
// claiming more is implausible, whether a reader parses it or a writer is
// asked to lay it out.
const maxElements = 1 << 28

// checkDims is the one dims check of a field file: at least one axis, every
// extent positive, at most maxElements elements. It returns the element
// count.
func checkDims(dims []int) (int, error) {
	if len(dims) == 0 {
		return 0, fmt.Errorf("fieldio: header has no dims")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("fieldio: invalid dimension %d", d)
		}
		if n > maxElements/d {
			return 0, fmt.Errorf("fieldio: implausible element count for dims %v", dims)
		}
		n *= d
	}
	return n, nil
}

// Write stores a field to path as one whole-field window of a TileWriter.
// meta.Dims defaults to the tensor's dims and must match them when set.
func Write(path string, meta Meta, t *grid.Tensor) error {
	if len(meta.Dims) == 0 {
		meta.Dims = t.Dims()
	}
	if !slices.Equal(meta.Dims, t.Dims()) {
		return fmt.Errorf("fieldio: meta dims %v do not match tensor dims %v", meta.Dims, t.Dims())
	}
	w, err := CreateSized(path, meta)
	if err != nil {
		return err
	}
	if err := w.WriteTile(make([]int, len(meta.Dims)), meta.Dims, t.Data()); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// Read loads a field file as one whole-field window of a Reader.
func Read(path string) (Meta, *grid.Tensor, error) {
	r, err := OpenReader(path)
	if err != nil {
		return Meta{}, nil, err
	}
	defer r.Close()
	dims := r.meta.Dims
	t := grid.New(dims...)
	if err := r.ReadTile(make([]int, len(dims)), dims, t.Data()); err != nil {
		return Meta{}, nil, err
	}
	return r.meta, t, nil
}
