package bitplane

import (
	"fmt"
	"math"
)

// SignMagnitude re-slices the level into the conventional alternative to
// nega-binary planes: one sign plane followed by Planes-1 magnitude planes,
// most significant first, packed as Bits is. It returns those planes and
// their error matrix, errMatrix[b] being the maximum |c_i - decode_b(c_i)|
// over the finite coefficients of coeffs (from which e was encoded) when
// only the first b sign-magnitude planes are read. The quantized integers
// are e's own, recovered from its full-precision words, so both
// representations agree at full precision. It panics unless coeffs holds
// e.N coefficients.
//
// Nothing reads sign-magnitude planes back: they exist so the encoding
// ablation can compare their error decay and compressed size against the
// nega-binary planes.
func (e *LevelEncoding) SignMagnitude(coeffs []float64) (bits [][]byte, errMatrix []float64) {
	if len(coeffs) != e.N {
		panic(fmt.Sprintf("bitplane: SignMagnitude of %d coefficients, want %d", len(coeffs), e.N))
	}
	planeBytes := e.PlaneSizeRaw()
	bits = make([][]byte, e.Planes)
	for k := range bits {
		bits[k] = make([]byte, planeBytes)
	}
	errMatrix = make([]float64, e.Planes+1)
	unit := e.unitSize()
	if unit == 0 {
		// Nothing was quantized (an all-zero or denormal level): the planes
		// are zero in either representation, so their errors are the same.
		copy(errMatrix, e.ErrMatrix)
		return bits, errMatrix
	}
	var nb Words
	e.TransposeWords(e.Planes, &nb, 1)
	signBit := uint(e.Planes - 1)
	words := make([]uint64, e.N)
	for i := range words {
		var q int64
		if nb.W64 != nil {
			q = DecodeNegabinary(nb.W64[i])
		} else {
			q = DecodeNegabinary(uint64(nb.W32[i]))
		}
		// |q| ≤ 2^(Planes-2) fits in the Planes-1 magnitude bits.
		if q < 0 {
			words[i] = 1<<signBit | uint64(-q)
		} else {
			words[i] = uint64(q)
		}
	}
	sliceGroups(words, bits, e.Planes, planeBytes, 0, (e.N+63)/64)

	errMatrix[0] = e.ErrMatrix[0]
	for i, w := range words {
		c := coeffs[i]
		if math.IsNaN(c) || math.IsInf(c, 0) {
			continue
		}
		var mag int64
		for b := 1; b <= e.Planes; b++ {
			p := uint(e.Planes - b)
			if p != signBit {
				mag |= int64(w & (1 << p))
			}
			dec := mag
			if w>>signBit == 1 {
				dec = -mag
			}
			// dec has c's sign and |dec·unit| ≤ 2^Exponent, so unlike a
			// nega-binary prefix the difference cannot overflow.
			errMatrix[b] = max(errMatrix[b], math.Abs(c-float64(float64(dec)*unit)))
		}
	}
	return bits, errMatrix
}
