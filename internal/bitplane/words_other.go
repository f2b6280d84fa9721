//go:build !amd64

package bitplane

// wordsAVX2 exists off amd64 only so that the dispatch compiles;
// cpufeat.AVX2, constant false here, keeps it from being called.
func wordsAVX2(bits [][]byte, n int, dst []uint32, b, planes, g0, g1 int) {
	panic("bitplane: AVX2 kernel called off amd64")
}
