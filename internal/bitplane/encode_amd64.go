package bitplane

import "unsafe"

// sliceAVX2 is sliceGroups on the AVX2 kernel, for words of at most 32
// planes: groups whose 64 coefficients all exist go to the kernel, a
// partial last group to sliceGroupsGo. Both store the identical plane
// bytes.
func sliceAVX2(words []uint64, bits [][]byte, planes, planeBytes, g0, g1 int) {
	full := max(min(g1, g0+len(words)/64), g0)
	if full > g0 {
		_ = words[64*(full-g0)-1]
		// rows[p] is the plane holding word bit p. Bits at or above the
		// plane count are zero; their rows point at plane 0, which the
		// kernel stores after them at the same bytes.
		var rows [32]unsafe.Pointer
		for p := range rows {
			k := max(planes-1-p, 0)
			_ = bits[k][8*full-1]
			rows[p] = unsafe.Pointer(unsafe.SliceData(bits[k]))
		}
		for g := g0; g < full; g += avx2Chunk {
			sliceAVX2Groups(&words[64*(g-g0)], &rows, 8*g, min(avx2Chunk, full-g))
		}
	}
	if g1 > full {
		sliceGroupsGo(words[64*(full-g0):], bits, planes, planeBytes, full, g1)
	}
}

// quantizeAVX2 writes the nega-binary words of the n (a positive multiple
// of 4) coefficients at cs to ws, four per step, exactly as quantizeGo
// does for a power-of-two unit = 1/recip and a limit ≤ 2³⁰: x = c·recip
// (c/unit bit for bit, recip being exact), rounded half away from zero
// as math.Round does — VROUNDPD truncates |x| and 1 is added where the
// exact fraction |x| − trunc(|x|) is ≥ 0.5 — clamped to ±limit (±Inf
// included), NaN to 0. The integer q leaves the float domain through the
// magic constant 2⁵²+2⁵¹ (exact for |q| ≤ 2⁵¹), whose bias folds into the
// nega-binary add.
//
//go:noescape
func quantizeAVX2(ws *uint64, cs *float64, n int, recip, limit float64)

// sliceAVX2Groups slices `groups` (≥ 1) whole 64-coefficient groups of the
// words at words — 32 significant bits each — into plane bytes off, off+8,
// … of the planes rows places (rows[p] holds word bit p). Per half-group
// of 32 words it narrows the words to dwords (VSHUFPS, VPERMQ),
// byte-transposes them into 4 registers, register b holding byte b of
// every word (VPSHUFB, dword/qword unpacks, VPERMD), and VPMOVMSKB of
// register b is then bit 8b+7 of all 32 words — the half's 4 bytes of that
// plane — with each VPADDB of the register to itself moving the next lower
// bit into the sign bits.
//
//go:noescape
func sliceAVX2Groups(words *uint64, rows *[32]unsafe.Pointer, off, groups int)

// foldAVX2 returns the largest |cs[j] − float64(DecodeNegabinary(ws[j] &
// mask))·unit| over the n (a positive multiple of 4) words at ws and
// coefficients at cs, for finite coefficients and a mask of at most 32
// planes, bit for bit as foldPlane's Go loop computes each error: the
// word decodes to 2⁵²+2⁵¹+v exactly as decodeAVX2's does, VSUBPD of the
// constant leaves float64(v), and one VMULPD by unit rounds once. Four
// accumulators of four lanes fold 16 words per step; max is exact and
// order-independent.
//
//go:noescape
func foldAVX2(ws *uint64, cs *float64, n int, mask uint64, unit float64) float64
