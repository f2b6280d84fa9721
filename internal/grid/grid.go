// Package grid provides dense N-dimensional float64 tensors used throughout
// the progressive-retrieval pipeline: simulation fields, coefficient levels,
// and feature extraction all operate on grid.Tensor values.
//
// Tensors use row-major (C) layout: the last dimension varies fastest. The
// package is deliberately small — just the operations the decomposer,
// simulators and feature extractor need — and allocates predictably so the
// hot paths in decomposition can reuse buffers.
package grid

import (
	"fmt"
	"math"
)

// Tensor is a dense N-dimensional array of float64 in row-major order.
// The zero value is not usable; construct with New or FromSlice.
type Tensor struct {
	dims    []int
	strides []int
	data    []float64
}

// New allocates a zero-filled tensor with the given dimensions.
// It panics if any dimension is non-positive or if dims is empty.
func New(dims ...int) *Tensor {
	if len(dims) == 0 {
		panic("grid: New requires at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("grid: non-positive dimension %d", d))
		}
		n *= d
	}
	t := &Tensor{
		dims: append([]int(nil), dims...),
		data: make([]float64, n),
	}
	t.strides = computeStrides(t.dims)
	return t
}

// FromSlice wraps an existing flat slice as a tensor with the given
// dimensions. The slice is used directly, not copied. It panics if the
// element count does not match the product of dims.
func FromSlice(data []float64, dims ...int) *Tensor {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("grid: non-positive dimension %d", d))
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("grid: data length %d does not match dims %v (want %d)", len(data), dims, n))
	}
	t := &Tensor{
		dims: append([]int(nil), dims...),
		data: data,
	}
	t.strides = computeStrides(t.dims)
	return t
}

func computeStrides(dims []int) []int {
	strides := make([]int, len(dims))
	s := 1
	for i := len(dims) - 1; i >= 0; i-- {
		strides[i] = s
		s *= dims[i]
	}
	return strides
}

// Dims returns the tensor's dimensions. The slice must not be modified.
func (t *Tensor) Dims() []int { return t.dims }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.dims) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying flat storage in row-major order.
// Mutations are visible to the tensor.
func (t *Tensor) Data() []float64 { return t.data }

// Offset converts a multi-index to the flat offset. It panics if the number
// of indices does not match the tensor rank or an index is out of range.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.dims) {
		panic(fmt.Sprintf("grid: index rank %d does not match tensor rank %d", len(idx), len(t.dims)))
	}
	off := 0
	for i, ix := range idx {
		if ix < 0 || ix >= t.dims[i] {
			panic(fmt.Sprintf("grid: index %d out of range [0,%d) in dimension %d", ix, t.dims[i], i))
		}
		off += ix * t.strides[i]
	}
	return off
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.Offset(idx...)] }

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.Offset(idx...)] = v }

// Clone returns a deep copy of the tensor.
func (t *Tensor) Clone() *Tensor {
	c := New(t.dims...)
	copy(c.data, t.data)
	return c
}

// GatherStride returns a new tensor holding every step-th node of t along
// each axis, starting at index 0: (n-1)/step+1 nodes per axis of extent n.
func (t *Tensor) GatherStride(step int) *Tensor {
	outDims := make([]int, len(t.dims))
	for d, n := range t.dims {
		outDims[d] = (n-1)/step + 1
	}
	out := New(outDims...)
	idx := make([]int, len(outDims))
	for i := range out.data {
		flat := 0
		for d, ix := range idx {
			flat += ix * step * t.strides[d]
		}
		out.data[i] = t.data[flat]
		for d := len(idx) - 1; d >= 0; d-- {
			idx[d]++
			if idx[d] < outDims[d] {
				break
			}
			idx[d] = 0
		}
	}
	return out
}

// CopyFrom copies src's contents into t. The tensors must have identical
// dimensions.
func (t *Tensor) CopyFrom(src *Tensor) {
	if !SameDims(t, src) {
		panic(fmt.Sprintf("grid: CopyFrom dims mismatch %v vs %v", t.dims, src.dims))
	}
	copy(t.data, src.data)
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Apply replaces every element x with f(x).
func (t *Tensor) Apply(f func(float64) float64) {
	for i, v := range t.data {
		t.data[i] = f(v)
	}
}

// SameDims reports whether a and b have identical dimensions.
func SameDims(a, b *Tensor) bool {
	if len(a.dims) != len(b.dims) {
		return false
	}
	for i := range a.dims {
		if a.dims[i] != b.dims[i] {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the L-infinity distance between a and b, which must
// have identical dimensions.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !SameDims(a, b) {
		panic(fmt.Sprintf("grid: MaxAbsDiff dims mismatch %v vs %v", a.dims, b.dims))
	}
	max := 0.0
	for i := range a.data {
		d := math.Abs(a.data[i] - b.data[i])
		if d > max {
			max = d
		}
	}
	return max
}

// RMSE returns the root-mean-square error between a and b.
func RMSE(a, b *Tensor) float64 {
	if !SameDims(a, b) {
		panic(fmt.Sprintf("grid: RMSE dims mismatch %v vs %v", a.dims, b.dims))
	}
	if a.Len() == 0 {
		return 0
	}
	sum := 0.0
	for i := range a.data {
		d := a.data[i] - b.data[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a.data)))
}

// PSNR returns the peak signal-to-noise ratio of the reconstruction b of
// original a, in decibels, using a's value range as the peak. It returns
// +Inf for an exact reconstruction.
func PSNR(a, b *Tensor) float64 {
	rmse := RMSE(a, b)
	if rmse == 0 {
		return math.Inf(1)
	}
	mn, mx := a.MinMax()
	rng := mx - mn
	if rng == 0 {
		rng = math.Abs(mx)
		if rng == 0 {
			rng = 1
		}
	}
	return 20 * math.Log10(rng/rmse)
}

// String returns a short diagnostic description of the tensor.
func (t *Tensor) String() string {
	mn, mx := t.MinMax()
	return fmt.Sprintf("Tensor(dims=%v, min=%.4g, max=%.4g)", t.dims, mn, mx)
}

// Slice returns a copy of the sub-volume [lo, hi) — hi exclusive per axis.
// It panics on rank mismatch or out-of-range bounds. Analyses that only
// need a region of interest slice the reconstruction rather than paying to
// process the full grid.
func (t *Tensor) Slice(lo, hi []int) *Tensor {
	if len(lo) != len(t.dims) || len(hi) != len(t.dims) {
		panic(fmt.Sprintf("grid: Slice rank mismatch: lo %d, hi %d, tensor %d", len(lo), len(hi), len(t.dims)))
	}
	outDims := make([]int, len(t.dims))
	for d := range t.dims {
		if lo[d] < 0 || hi[d] > t.dims[d] || lo[d] >= hi[d] {
			panic(fmt.Sprintf("grid: Slice bounds [%d,%d) invalid for dimension %d of size %d", lo[d], hi[d], d, t.dims[d]))
		}
		outDims[d] = hi[d] - lo[d]
	}
	out := New(outDims...)
	src := make([]int, len(t.dims))
	dst := make([]int, len(t.dims))
	var walk func(d int)
	walk = func(d int) {
		if d == len(t.dims) {
			out.Set(t.At(src...), dst...)
			return
		}
		for i := lo[d]; i < hi[d]; i++ {
			src[d] = i
			dst[d] = i - lo[d]
			walk(d + 1)
		}
	}
	walk(0)
	return out
}
