package bitplane

import (
	"encoding/binary"
	"math"
	"math/bits"

	"pmgard/internal/bufpool"
)

// This file holds the word-parallel kernels behind EncodeLevel and
// DecodePartial. The scalar encoder tested one bit per coefficient per
// plane; these kernels instead move 64 coefficients per step through a
// 64×64 bit-matrix transpose, so slicing (and un-slicing) all B planes of
// a 64-coefficient group costs one transpose (~6·64 word operations)
// instead of 64·B dependent bit tests. The nega-binary error matrix visits
// a word only at the prefixes its leading digit reaches — every shorter
// prefix decodes to 0, whose error one max of |c| per block covers — and
// decodes each visited prefix with two word operations.
//
// Every kernel is bit-exact with the scalar definition (the retained
// reference in scalar_ref_test.go): the transpose is a pure bit
// permutation, and the error pass derives each error from the same int64
// prefix value decodeWord computes from a masked word, so the float
// operations — float64(dec)*unit, the subtraction, Abs, max — see
// identical operands in both implementations.

// transpose64 transposes the 64×64 bit matrix held in a, in place, under
// the convention out[r] bit p = in[63-p] bit (63-r) — the classic
// Hacker's-Delight block-swap network (6 rounds of masked exchanges). The
// operation is an involution, so the same call both slices words into
// plane lanes and reassembles lanes into words; the callers below absorb
// the index reversals.
func transpose64(a *[64]uint64) {
	// Rounds are unrolled with constant shifts and masks so every exchange
	// compiles to straight-line register arithmetic (the variable-shift
	// generic loop defeats bounds-check elimination and keeps the masks in
	// memory).
	const (
		m32 = 0x00000000FFFFFFFF
		m16 = 0x0000FFFF0000FFFF
		m8  = 0x00FF00FF00FF00FF
		m4  = 0x0F0F0F0F0F0F0F0F
		m2  = 0x3333333333333333
		m1  = 0x5555555555555555
	)
	for k := 0; k < 32; k++ {
		t := (a[k] ^ (a[k+32] >> 32)) & m32
		a[k] ^= t
		a[k+32] ^= t << 32
	}
	for b := 0; b < 64; b += 32 {
		for k := b; k < b+16; k++ {
			t := (a[k] ^ (a[k+16] >> 16)) & m16
			a[k] ^= t
			a[k+16] ^= t << 16
		}
	}
	for b := 0; b < 64; b += 16 {
		for k := b; k < b+8; k++ {
			t := (a[k] ^ (a[k+8] >> 8)) & m8
			a[k] ^= t
			a[k+8] ^= t << 8
		}
	}
	for b := 0; b < 64; b += 8 {
		for k := b; k < b+4; k++ {
			t := (a[k] ^ (a[k+4] >> 4)) & m4
			a[k] ^= t
			a[k+4] ^= t << 4
		}
	}
	for b := 0; b < 64; b += 4 {
		for k := b; k < b+2; k++ {
			t := (a[k] ^ (a[k+2] >> 2)) & m2
			a[k] ^= t
			a[k+2] ^= t << 2
		}
	}
	for k := 0; k < 64; k += 2 {
		t := (a[k] ^ (a[k+1] >> 1)) & m1
		a[k] ^= t
		a[k+1] ^= t << 1
	}
}

// quantizeRange fills words[lo:hi] with the plane-word encoding of
// coeffs[lo:hi]: NaN quantizes to zero, ±Inf saturates to ±limit, finite
// values round to the nearest quantization unit and clamp to ±limit.
func quantizeRange(coeffs []float64, words []uint64, unit float64, limit int64, planes int, mode Mode, lo, hi int) {
	for i := lo; i < hi; i++ {
		c := coeffs[i]
		var q int64
		switch {
		case math.IsNaN(c):
			q = 0
		case math.IsInf(c, 1):
			q = limit
		case math.IsInf(c, -1):
			q = -limit
		default:
			q = int64(math.Round(c / unit))
			if q > limit {
				q = limit
			} else if q < -limit {
				q = -limit
			}
		}
		words[i] = encodeWord(q, planes, mode)
	}
}

// sliceGroups slices words into the bit-planes for coefficient groups
// [g0, g1): group g covers coefficients [64g, 64g+64) and plane bytes
// [8g, 8g+8). Each group loads its words into a 64×64 bit matrix (input
// rows reversed to match transpose64's convention), transposes once, and
// stores plane k's 64-bit lane with one little-endian write — which is
// exactly the "8 coefficients per byte, LSB-first" plane layout. Every
// plane byte of the group is overwritten, so destination planes may hold
// garbage (pooled buffers) on entry.
func sliceGroups(words []uint64, bits [][]byte, planes, planeBytes, g0, g1 int) {
	n := len(words)
	var m [64]uint64
	for g := g0; g < g1; g++ {
		base := g * 64
		cnt := n - base
		if cnt > 64 {
			cnt = 64
		}
		// in[63-j] = words[base+j]; rows beyond the tail stay zero.
		for j := 0; j < 64-cnt; j++ {
			m[j] = 0
		}
		for j := 0; j < cnt; j++ {
			m[63-j] = words[base+j]
		}
		transpose64(&m)
		// Plane k reads bit position P = planes-1-k of every word, which
		// the transpose leaves in row 63-P = 64-planes+k.
		byteBase := g * 8
		nb := planeBytes - byteBase
		if nb >= 8 {
			for k := 0; k < planes; k++ {
				binary.LittleEndian.PutUint64(bits[k][byteBase:byteBase+8], m[64-planes+k])
			}
		} else {
			for k := 0; k < planes; k++ {
				lane := m[64-planes+k]
				for b := 0; b < nb; b++ {
					bits[k][byteBase+b] = byte(lane >> (8 * b))
				}
			}
		}
	}
}

// gatherGroups reassembles coefficients [64g0, 64g1) from the first b
// planes into dst: the inverse of sliceGroups. Each group loads the b
// plane lanes into the rows transpose64 maps them from, transposes back
// (the network is an involution), and dequantizes the recovered words.
func gatherGroups(bits [][]byte, dst []float64, b, planes int, mode Mode, unit float64, g0, g1 int) {
	n := len(dst)
	planeBytes := (n + 7) / 8
	// The matrix is NOT re-zeroed between groups: stale rows from the
	// previous transpose only land in word bit positions outside the b-plane
	// prefix (row 63-p feeds exactly bit p of every word, and only rows
	// 64-planes+k, k < b — the ones reloaded each group — feed prefix bits),
	// so masking each recovered word with the prefix mask removes every
	// stale bit. This is also exactly the word the scalar path assembles
	// from b planes.
	var m [64]uint64
	prefixMask := (uint64(1)<<uint(b) - 1) << uint(planes-b)
	for g := g0; g < g1; g++ {
		byteBase := g * 8
		nb := planeBytes - byteBase
		if nb >= 8 {
			for k := 0; k < b; k++ {
				m[64-planes+k] = binary.LittleEndian.Uint64(bits[k][byteBase : byteBase+8])
			}
		} else {
			for k := 0; k < b; k++ {
				var lane uint64
				for j := 0; j < nb; j++ {
					lane |= uint64(bits[k][byteBase+j]) << (8 * j)
				}
				m[64-planes+k] = lane
			}
		}
		transpose64(&m)
		base := g * 64
		cnt := n - base
		if cnt > 64 {
			cnt = 64
		}
		// words[base+j] = m[63-j]; split by mode so the word decode inlines.
		if mode == Negabinary {
			for j := 0; j < cnt; j++ {
				dst[base+j] = float64(DecodeNegabinary(m[63-j]&prefixMask)) * unit
			}
		} else {
			for j := 0; j < cnt; j++ {
				dst[base+j] = float64(decodeWord(m[63-j]&prefixMask, planes, mode)) * unit
			}
		}
	}
}

// transpose8x8 transposes the 8×8 bit matrix packed into x (byte r = row
// r, LSB-first), with out byte j bit i = in byte i bit j — three rounds of
// masked block swaps.
func transpose8x8(x uint64) uint64 {
	t := (x ^ (x >> 7)) & 0x00AA00AA00AA00AA
	x = x ^ t ^ (t << 7)
	t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCC
	x = x ^ t ^ (t << 14)
	t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0
	return x ^ t ^ (t << 28)
}

// gatherGroupsSmall is gatherGroups for shallow prefixes (b ≤ 8): the full
// 64×64 transpose touches all 64 rows no matter how few planes are live, so
// a prefix this thin moves through 8×8 tiles instead — one packed-word
// transpose per 8 coefficients — and a 256-entry table maps each
// coefficient's prefix byte straight to its decoded integer (the exact
// decodeWord value, so the float multiply sees identical operands).
func gatherGroupsSmall(bits [][]byte, dst []float64, b, planes int, mode Mode, unit float64, g0, g1 int) {
	var lut [256]int64
	for v := 1; v < 256; v++ {
		var w uint64
		for k := 0; k < b; k++ {
			if v>>uint(k)&1 == 1 {
				w |= 1 << uint(planes-1-k)
			}
		}
		lut[v] = decodeWord(w, planes, mode)
	}
	n := len(dst)
	planeBytes := (n + 7) / 8
	for g := g0; g < g1; g++ {
		hiByte := (g + 1) * 8
		if hiByte > planeBytes {
			hiByte = planeBytes
		}
		for byteIx := g * 8; byteIx < hiByte; byteIx++ {
			// Tile row k = plane k's byte; rows b..7 stay zero.
			var x uint64
			for k := 0; k < b; k++ {
				x |= uint64(bits[k][byteIx]) << uint(8*k)
			}
			x = transpose8x8(x)
			base := byteIx * 8
			cnt := n - base
			if cnt > 8 {
				cnt = 8
			}
			for j := 0; j < cnt; j++ {
				dst[base+j] = float64(lut[byte(x>>uint(8*j))]) * unit
			}
		}
	}
}

// errBlock is the number of coefficients the nega-binary error-matrix fold
// sorts and folds at a time: the block's sorted words and coefficients
// (16 bytes each, 32 KiB) stay cache-resident across all of its plane
// passes.
const errBlock = 2048

// errMatrixRange folds coefficients [lo, hi) into out, where out[b] is the
// running maximum of |c_i - decode_b(c_i)| over the range (out must hold
// planes+1 entries and start at the caller's running maxima — zero for a
// fresh range). Each (coefficient, prefix) error is computed from the same
// int64 decodeWord gives the masked word, so the float operations see
// operands identical to the scalar pass's: nega-binary decodes the masked
// word directly with its two-operation identity, and sign-magnitude
// accumulates magnitude bits under a sign read from plane 0, one
// conditional add per plane. Non-finite coefficients are excluded, as no
// finite plane prefix bounds their error. It returns the number of
// (coefficient, plane) pairs it folded one by one.
func errMatrixRange(coeffs []float64, words []uint64, unit float64, planes int, mode Mode, lo, hi int, out []float64) (pairs int64) {
	// acc holds the running maxima in a fixed-size stack array so the
	// inner loops index it bounds-check-free and out is only touched once
	// at the end (planes ≤ 60, so b ≤ 60 < 61).
	var acc [61]float64
	cs, ws := coeffs[lo:hi], words[lo:hi:hi]
	for _, c := range cs {
		if a := math.Abs(c); a > acc[0] && !math.IsInf(c, 0) {
			acc[0] = a
		}
	}
	if mode == Negabinary {
		// e can only overflow to Inf when |c| + the largest possible decoded
		// magnitude reaches the float range (an Exponent near 1023); decided
		// once here so the common case skips the per-element Inf saturation
		// test. The saturating path computes e from identical operands, so
		// the two variants are bit-identical wherever both are finite.
		safe := acc[0]+float64(uint64(1)<<uint(planes))*unit < math.MaxFloat64
		wblk := bufpool.Uint64s(errBlock)
		cblk := bufpool.Float64s(errBlock)
		for b0 := 0; b0 < len(ws); b0 += errBlock {
			b1 := min(b0+errBlock, len(ws))
			pairs += foldNegabinaryBlock(cs[b0:b1], ws[b0:b1], wblk, cblk, unit, planes, safe, &acc)
		}
		bufpool.PutFloat64s(cblk)
		bufpool.PutUint64s(wblk)
	} else {
		// digit[p] is the magnitude a set bit at position p contributes.
		var digit [60]int64
		for p := range digit {
			digit[p] = int64(1) << uint(p)
		}
		signBit := uint(planes - 1)
		for j, w := range ws {
			c := cs[j]
			if math.IsNaN(c) || math.IsInf(c, 0) {
				continue
			}
			pairs += int64(planes)
			var dec, mag int64
			neg := false
			for b := 1; b <= planes; b++ {
				p := uint(planes - b)
				if p == signBit {
					neg = w>>p&1 == 1
				} else {
					mag += int64(w>>p&1) * digit[p]
				}
				if neg {
					dec = -mag
				} else {
					dec = mag
				}
				e := math.Abs(c - float64(dec)*unit)
				if math.IsInf(e, 0) {
					e = math.MaxFloat64
				}
				if e > acc[b] {
					acc[b] = e
				}
			}
		}
	}
	for b := 0; b <= planes; b++ {
		if acc[b] > out[b] {
			out[b] = acc[b]
		}
	}
	return pairs
}

// foldNegabinaryBlock folds one block of at most errBlock (coefficient,
// word) pairs into acc, using sw and sc (errBlock entries each) as scratch,
// and returns the pairs it folded one by one.
//
// A word with h = bits.Len64(w) ≤ planes-b (every set digit below position
// planes-b) has an all-zero b-plane prefix, which decodes to exactly 0, so
// its error at prefix b is |c - 0·unit| = |c| bit for bit. The block is
// therefore counting-sorted by h, highest first: at prefix b the
// coefficients with h > planes-b are a prefix of the sorted block and are
// folded one by one, and the rest contribute one precomputed max of |c|
// over h ≤ planes-b. Max is exact and order-independent, so acc ends
// bit-identical to folding every pair — at Σh pairs instead of n·planes.
// Non-finite coefficients are skipped outright: no prefix bounds their
// error, and the scalar definition excludes them.
func foldNegabinaryBlock(cs []float64, ws, sw []uint64, sc []float64, unit float64, planes int, safe bool, acc *[61]float64) (pairs int64) {
	cs = cs[:len(ws)]
	// low[h] is first the largest |c| with leading digit h, then the
	// largest with leading digit ≤ h; off[h] is the number of words whose
	// leading digit is above h — bucket h's start in descending order.
	var cnt, off [65]int
	var low [65]float64
	for j, w := range ws {
		a := math.Abs(cs[j])
		if !(a <= math.MaxFloat64) {
			continue // NaN or ±Inf
		}
		h := bits.Len64(w)
		cnt[h]++
		if a > low[h] {
			low[h] = a
		}
	}
	for h := 63; h >= 0; h-- {
		off[h] = off[h+1] + cnt[h+1]
	}
	for h := 1; h < planes; h++ {
		if low[h-1] > low[h] {
			low[h] = low[h-1]
		}
	}
	// Scatter the significant words (h ≥ 1) into sorted position; bucket
	// 0 never enters a prefix.
	pos := off
	for j, w := range ws {
		if w == 0 {
			continue
		}
		c := cs[j]
		if !(math.Abs(c) <= math.MaxFloat64) {
			continue
		}
		h := bits.Len64(w)
		k := pos[h]
		pos[h] = k + 1
		sw[k], sc[k] = w, c
	}
	for b := 1; b <= planes; b++ {
		t := planes - b
		maxErr := acc[b]
		if low[t] > maxErr {
			maxErr = low[t]
		}
		m := off[t]
		pairs += int64(m)
		mask := (uint64(1)<<uint(b) - 1) << uint(t)
		acc[b] = foldPlane(sw[:m], sc[:m], mask, unit, maxErr, safe)
	}
	return pairs
}

// foldPlane decodes the b-plane prefix (mask) of each word of ws and
// returns maxErr raised to the largest |c - dec·unit|. It is one
// plane-major pass: DecodeNegabinary of the masked word is an xor and a
// subtract — no per-word state carried between planes — and iterations are
// independent, so the max folds in a register at full ILP. It is a
// function of its own so that the loop gets every register.
func foldPlane(ws []uint64, cs []float64, mask uint64, unit, maxErr float64, safe bool) float64 {
	cs = cs[:len(ws)]
	if safe {
		for j, w := range ws {
			e := math.Abs(cs[j] - float64(DecodeNegabinary(w&mask))*unit)
			if e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}
	for j, w := range ws {
		e := math.Abs(cs[j] - float64(DecodeNegabinary(w&mask))*unit)
		if math.IsInf(e, 0) {
			// A short nega-binary prefix of a near-MaxFloat64 level can
			// dequantize past the float range; saturate the bound.
			e = math.MaxFloat64
		}
		if e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}
