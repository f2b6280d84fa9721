//go:build !amd64

package bitplane

// haveAVX2 is false off amd64, where wordGroups32 keeps the portable
// kernels.
const haveAVX2 = false

// wordsAVX2 exists off amd64 only so that the dispatch compiles; haveAVX2
// keeps it from being called.
func wordsAVX2(bits [][]byte, n int, dst []uint32, b, planes, g0, g1 int) {
	panic("bitplane: AVX2 kernel called off amd64")
}
