package decompose

import "pmgard/internal/codec"

// predictAVX2 is predictRow1 on the AVX2 kernel over the first len(c) &^ 7
// elements of c, and returns that count; a and a non-nil b hold at least
// as many. The kernel computes what the Go loops do, operation for
// operation, so the two lift identical bits.
func predictAVX2(c, a, b []float64, fwd bool) int {
	n := len(c) &^ 7
	if n == 0 {
		return 0
	}
	_ = a[n-1]
	if b != nil {
		_ = b[n-1]
	}
	for i := 0; i < n; i += liftChunk {
		predictRowsAVX2(&c[i], &a[i], rowPtr(b, i), min(liftChunk, n-i), fwd)
	}
	return n
}

// updateAVX2 is predictAVX2 for updateRow1.
func updateAVX2(c, a, b []float64, w float64, fwd bool) int {
	n := len(c) &^ 7
	if n == 0 {
		return 0
	}
	_ = a[n-1]
	if b != nil {
		_ = b[n-1]
	}
	for i := 0; i < n; i += liftChunk {
		updateRowsAVX2(&c[i], &a[i], rowPtr(b, i), min(liftChunk, n-i), w, !fwd)
	}
	return n
}

// rowPtr returns &b[i], or nil for a nil b: the kernels' one-sided row.
func rowPtr(b []float64, i int) *float64 {
	if b == nil {
		return nil
	}
	return &b[i]
}

// predictRowsAVX2 lifts the n (a positive multiple of 8) elements at c from
// those at a and b, four doubles per instruction: c ∓ 0.5·(a + b), or c ∓ a
// when b is nil, subtracting when sub is set.
//
//go:noescape
func predictRowsAVX2(c, a, b *float64, n int, sub bool)

// updateRowsAVX2 is predictRowsAVX2 for the update: c ∓ w·((0 + a) + b),
// or c ∓ w·(0 + a) when b is nil. The sum starts from +0, as the Go loops'
// does, because 0 + x is not x when x is −0.
//
//go:noescape
func updateRowsAVX2(c, a, b *float64, n int, w float64, sub bool)

// inverseLines4AVX2 is the inverse step along the four last-axis lines
// that start at data[off], data[off+rows], data[off+2·rows] and
// data[off+3·rows], count (≥ 2) active nodes each, every h-th element, on
// the AVX2 kernel: each line ends as inverseLine (h = 1) or updateInverse
// and then predictInverse (h > 1) leave it, bit for bit, and no element
// between active nodes or between lines is written.
func inverseLines4AVX2(data []float64, off, rows, count, h int, opt codec.Options) {
	_ = data[off+3*rows+(count-1)*h]
	inverseLinesAVX2(&data[off], count, h, rows, opt.UpdateWeight, opt.Update)
}

// inverseLinesAVX2 lifts the four lines of n (≥ 2) nodes, h elements
// apart, whose first nodes are x and the three that follow it rows
// elements apart each. The update is x − w·((0 + left) + right) and the
// predict x + 0.5·(left + right), each operation rounded once as in the
// Go lines; update false skips the update.
//
//go:noescape
func inverseLinesAVX2(x *float64, n, h, rows int, w float64, update bool)
