//go:build !amd64

package decompose

import "pmgard/internal/codec"

// predictAVX2, updateAVX2 and inverseLines4AVX2 exist off amd64 only so
// that the dispatch compiles; cpufeat.AVX2, constant false here, keeps them
// from being called.
func predictAVX2(c, a, b []float64, fwd bool) int {
	panic("decompose: AVX2 kernel called off amd64")
}

func updateAVX2(c, a, b []float64, w float64, fwd bool) int {
	panic("decompose: AVX2 kernel called off amd64")
}

func inverseLines4AVX2(data []float64, off, rows, count, h int, opt codec.Options) {
	panic("decompose: AVX2 kernel called off amd64")
}
