//go:build !amd64

package bitplane

// wordsAVX2 exists off amd64 only so that the dispatch compiles;
// cpufeat.AVX2, constant false here, keeps it from being called.
func wordsAVX2(bits [][]byte, n int, dst []uint32, b, planes, g0, g1 int) {
	panic("bitplane: AVX2 kernel called off amd64")
}

// decodeAVX2 exists off amd64 only so that the dispatch compiles;
// cpufeat.AVX2, constant false here, keeps it from being called.
func decodeAVX2(dst *float64, stride int, ws *uint32, n int, mask uint64, unit float64) {
	panic("bitplane: AVX2 kernel called off amd64")
}
