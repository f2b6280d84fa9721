package bitplane

import "unsafe"

// wordPlacement is where each plane lane of a 64-coefficient group enters
// the AVX2 kernel, fixed once per (planes, b). The kernel gathers YMM
// register i (i < 8) from four lanes — rows 2i and 2i+1 in its low 128-bit
// half, rows 16+2i and 17+2i in its high half — where row p is word bit p,
// so it holds plane planes-1-p. rows[4i..4i+3] point at those four rows'
// planes, and ctrl[i] is register i's VPSHUFB control: within each half it
// interleaves the two rows' bytes (output byte 2c+q is byte c of the half's
// row q), and it writes zero for a row that holds no plane of the prefix
// (p ≥ planes, or plane ≥ b), whose pointer is then plane 0's: a live
// address whose bytes the control discards.
type wordPlacement struct {
	rows [32]unsafe.Pointer
	ctrl [8][32]byte
}

// place fixes p for the first b (≥ 1) planes of a planes-plane level whose
// planes are bits, checking that each live plane holds bytes [0, minLen).
func (p *wordPlacement) place(bits [][]byte, b, planes, minLen int) {
	for k := 0; k < b; k++ {
		_ = bits[k][minLen-1]
	}
	for i := range p.ctrl {
		for q, row := range [4]int{2 * i, 2*i + 1, 16 + 2*i, 17 + 2*i} {
			k := planes - 1 - row
			live := k >= 0 && k < b
			if !live {
				k = 0
			}
			p.rows[4*i+q] = unsafe.Pointer(unsafe.SliceData(bits[k]))
			half, odd := q/2, q%2
			for c := 0; c < 8; c++ {
				v := byte(8*odd + c)
				if !live {
					v = 0x80
				}
				p.ctrl[i][16*half+2*c+odd] = v
			}
		}
	}
}

// avx2Chunk bounds the groups one assembly call transposes (≈ 40 µs of
// work): a goroutine cannot be preempted inside the call, so a large level
// is handed over in chunks.
const avx2Chunk = 1024

// wordsAVX2 is wordsHalf on the AVX2 kernel: it writes the words of
// coefficients [64g0, 64g1) of an n-coefficient level, recovered from its
// first b (≥ 1) planes, into dst, whose element 0 is coefficient 64g0. The
// kernel takes every group whose 64 coefficients all exist; a partial last
// group goes to wordsHalf. Both recover the identical words.
func wordsAVX2(bits [][]byte, n int, dst []uint32, b, planes, g0, g1 int) {
	full := max(min(g1, n/64), g0)
	if full > g0 {
		_ = dst[64*(full-g0)-1]
		var p wordPlacement
		p.place(bits, b, planes, 8*full)
		for g := g0; g < full; g += avx2Chunk {
			wordsAVX2Groups(&dst[64*(g-g0)], &p, 8*g, min(avx2Chunk, full-g))
		}
	}
	if g1 > full {
		wordsHalf(bits, n, dst[64*(full-g0):], b, planes, full, g1)
	}
}

// wordsAVX2Groups writes the words of `groups` (≥ 1) whole 64-coefficient
// groups to dst, 64 per group, reading each group's lanes at byte off, off+8,
// … of the planes p places. Per group it loads the 32 rows into 8 YMM
// registers (4 lanes each), byte-interleaves each register's row pairs with
// VPSHUFB, and byte-transposes them with three unpack levels
// (VPUNPCK{L,H}WD, DQ, QDQ) into 8 registers where register r byte p is
// byte r of row p. VPMOVMSKB of register r is then the word of coefficient
// 8r+7 — row p's bit at word bit p — and each VPADDB of the register to
// itself moves the next lower coefficient's bits into the sign bits.
//
//go:noescape
func wordsAVX2Groups(dst *uint32, p *wordPlacement, off, groups int)

// decodeAVX2 writes the value of each of the n (≥ 1) words at ws to dst,
// dst+stride, … (stride in elements): float64(DecodeNegabinary(w & mask))
// · unit, four words per step. VPMOVZXDQ widens four words to int64 lanes;
// VPAND applies the prefix mask and VPXOR/VPADDQ by negaMask and a bias
// decode the nega-binary word, the bias also adding the bits of 2⁵²+2⁵¹,
// so that the lane read as a float64 is exactly 2⁵²+2⁵¹+v; VSUBPD of that
// constant leaves float64(v) — exact, since |v| < 2³² ≪ 2⁵¹ — and one
// VMULPD by unit rounds once, as the Go loop's product does. Stride 1
// stores with VMOVUPD, longer strides lane by lane with VMOVLPD/VMOVHPD;
// a tail of fewer than four words runs the same steps one word at a time.
//
//go:noescape
func decodeAVX2(dst *float64, stride int, ws *uint32, n int, mask uint64, unit float64)
