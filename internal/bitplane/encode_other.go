//go:build !amd64

package bitplane

// The encode kernels exist off amd64 only so that the dispatch compiles;
// encodeAVX2, false here, keeps them from being called.

func sliceAVX2(words []uint64, bits [][]byte, planes, planeBytes, g0, g1 int) {
	panic("bitplane: AVX2 kernel called off amd64")
}

func quantizeAVX2(ws *uint64, cs *float64, n int, recip, limit float64) {
	panic("bitplane: AVX2 kernel called off amd64")
}

func foldAVX2(ws *uint64, cs *float64, n int, mask uint64, unit float64) float64 {
	panic("bitplane: AVX2 kernel called off amd64")
}
