package bitplane

import (
	"encoding/binary"
	"math"
	"math/bits"

	"pmgard/internal/cpufeat"
)

// This file holds the word-parallel kernels behind EncodeLevel,
// TransposeWords and Decode. The scalar encoder tested
// one bit per coefficient per plane; these kernels instead move 64
// coefficients per step through a 64×64 bit-matrix transpose, so slicing
// (and un-slicing) all B planes of a 64-coefficient group costs one
// transpose (~6·64 word operations) instead of 64·B dependent bit tests. The nega-binary error matrix visits
// a word only at the prefixes its leading digit reaches — every shorter
// prefix decodes to 0, whose error one max of |c| per block covers — and
// decodes each visited prefix with two word operations.
//
// Every kernel is bit-exact with the scalar definition (the retained
// reference in scalar_ref_test.go): the transpose is a pure bit
// permutation, and the error pass derives each error from the same int64
// prefix value DecodeNegabinary gives the masked word, so the float
// operations — float64(dec)*unit, the subtraction, Abs, max — see
// identical operands in both implementations.

// transpose64 transposes the 64×64 bit matrix held in a, in place, under
// the convention out[r] bit p = in[63-p] bit (63-r) — the classic
// Hacker's-Delight block-swap network (6 rounds of masked exchanges). The
// operation is an involution, so the same call both slices words into
// plane lanes and reassembles lanes into words; the callers below absorb
// the index reversals.
func transpose64(a *[64]uint64) {
	// The first round swaps the off-diagonal 32×32 blocks; the remaining
	// five transpose rows 0..31 and rows 32..63 independently.
	const m32 = 0x00000000FFFFFFFF
	for k := 0; k < 32; k++ {
		t := (a[k] ^ (a[k+32] >> 32)) & m32
		a[k] ^= t
		a[k+32] ^= t << 32
	}
	transpose32x2((*[32]uint64)(a[:32]))
	transpose32x2((*[32]uint64)(a[32:]))
}

// transpose32x2 runs the 16/8/4/2/1 rounds of transpose64's network on 32
// rows. The masks repeat every 32 bits, so one pass transposes the low and
// the high 32×32 halves of the rows side by side: out[r] bit p =
// in[31-p] bit (31-r) and out[r] bit 32+p = in[31-p] bit (63-r), for r, p
// in [0, 32).
func transpose32x2(a *[32]uint64) {
	// Rounds are unrolled with constant shifts and masks so every exchange
	// compiles to straight-line register arithmetic (the variable-shift
	// generic loop defeats bounds-check elimination and keeps the masks in
	// memory).
	const (
		m16 = 0x0000FFFF0000FFFF
		m8  = 0x00FF00FF00FF00FF
		m4  = 0x0F0F0F0F0F0F0F0F
		m2  = 0x3333333333333333
		m1  = 0x5555555555555555
	)
	for k := 0; k < 16; k++ {
		t := (a[k] ^ (a[k+16] >> 16)) & m16
		a[k] ^= t
		a[k+16] ^= t << 16
	}
	for b := 0; b < 32; b += 16 {
		for k := b; k < b+8; k++ {
			t := (a[k] ^ (a[k+8] >> 8)) & m8
			a[k] ^= t
			a[k+8] ^= t << 8
		}
	}
	for b := 0; b < 32; b += 8 {
		for k := b; k < b+4; k++ {
			t := (a[k] ^ (a[k+4] >> 4)) & m4
			a[k] ^= t
			a[k+4] ^= t << 4
		}
	}
	for b := 0; b < 32; b += 4 {
		for k := b; k < b+2; k++ {
			t := (a[k] ^ (a[k+2] >> 2)) & m2
			a[k] ^= t
			a[k+2] ^= t << 2
		}
	}
	for k := 0; k < 32; k += 2 {
		t := (a[k] ^ (a[k+1] >> 1)) & m1
		a[k] ^= t
		a[k+1] ^= t << 1
	}
}

// encodeAVX2 reports whether the fused encode pass runs its AVX2 kernels
// (quantize, sliceGroups and foldPlane on levels of at most 32 planes):
// cpufeat.AVX2, held in a variable so that tests can run the Go loops,
// which stay the reference and the path everywhere else, on any host.
var encodeAVX2 = cpufeat.AVX2

// quantize fills ws with the nega-binary plane words of cs: NaN quantizes
// to zero, ±Inf saturates to ±limit, finite values round to the nearest
// quantization unit and clamp to ±limit. unit is a power of two, and
// |c/unit| < 2⁶³ for finite c, as every coefficient of a level is (at most
// 2^(planes−1) units). With a limit of at most 2³⁰ (at most 32 planes) and
// a unit whose reciprocal is exact, whole quads go to the AVX2 kernel on
// CPUs that have it, and the Go loop takes the rest; both give the
// identical words.
func quantize(cs []float64, ws []uint64, unit float64, limit int64) {
	ws = ws[:len(cs)]
	if n := len(cs) &^ 3; n > 0 && encodeAVX2 && limit <= 1<<30 && unit >= 0x1p-1022 && unit <= 0x1p1022 {
		quantizeAVX2(&ws[0], &cs[0], n, 1/unit, float64(limit))
		cs, ws = cs[n:], ws[n:]
	}
	for i, c := range cs {
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
		ws[i] = EncodeNegabinary(q)
	}
}

// sliceGroups slices words into the bit-planes for coefficient groups
// [g0, g1): group g covers coefficients [64g, 64g+64) and plane bytes
// [8g, 8g+8), and words holds the words of coefficients 64g0 onwards, up to
// the level's last. Each group loads its words into a 64×64 bit matrix
// (input rows reversed to match transpose64's convention), transposes
// once, and stores plane k's 64-bit lane with one little-endian write —
// which is exactly the "8 coefficients per byte, LSB-first" plane layout.
// Every plane byte of the group is overwritten, so destination planes may
// hold garbage (pooled buffers) on entry. Levels of at most 32 planes run
// on the AVX2 kernel on CPUs that have it.
func sliceGroups(words []uint64, bits [][]byte, planes, planeBytes, g0, g1 int) {
	if encodeAVX2 && planes <= 32 {
		sliceAVX2(words, bits, planes, planeBytes, g0, g1)
		return
	}
	sliceGroupsGo(words, bits, planes, planeBytes, g0, g1)
}

// sliceGroupsGo is sliceGroups on the portable 64×64 transpose.
func sliceGroupsGo(words []uint64, bits [][]byte, planes, planeBytes, g0, g1 int) {
	var m [64]uint64
	for g := g0; g < g1; g++ {
		gw := words[64*(g-g0):]
		cnt := min(len(gw), 64)
		// in[63-j] = gw[j]; rows beyond the tail stay zero.
		for j := 0; j < 64-cnt; j++ {
			m[j] = 0
		}
		for j := 0; j < cnt; j++ {
			m[63-j] = gw[j]
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

// wordsFull writes the words of coefficients [64g0, 64g1) of an
// n-coefficient level, recovered from its first b planes, into dst, whose
// element 0 is coefficient 64g0: the inverse of sliceGroups. Each group
// loads the b plane lanes into the rows transpose64 maps them from,
// transposes back (the network is an involution), and masks each recovered
// word to the b-plane prefix.
func wordsFull(bits [][]byte, n int, dst []uint64, b, planes, g0, g1 int) {
	planeBytes := (n + 7) / 8
	// The matrix is NOT re-zeroed between groups: stale rows from the
	// previous transpose only land in word bit positions outside the b-plane
	// prefix (row 63-p feeds exactly bit p of every word, and only rows
	// 64-planes+k, k < b — the ones reloaded each group — feed prefix bits),
	// so masking each recovered word with the prefix mask removes every
	// stale bit. This is also exactly the word the scalar path assembles
	// from b planes.
	var m [64]uint64
	mask := prefixMask(b, planes)
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
		out := dst[base-64*g0 : base-64*g0+min(n-base, 64)]
		// words[base+j] = m[63-j].
		for j := range out {
			out[j] = m[63-j] & mask
		}
	}
}

// wordsHalf is wordsFull for levels of at most 32 planes: every word fits
// in 32 bits, so the b plane lanes load into 32 rows (lane k at row
// 32-planes+k) and transpose32x2 — the last five rounds of the network —
// turns the group's two 32-coefficient halves into words at once:
// coefficient j < 32 is the low half of row 31-j, coefficient j ≥ 32 the
// high half of row 63-j. Stale rows carry over exactly as in wordsFull: row
// i feeds only bit 31-i of every word, and only the rows reloaded each group
// feed prefix bits, so the prefix mask removes every stale bit and leaves
// the word wordsFull recovers.
func wordsHalf(bits [][]byte, n int, dst []uint32, b, planes, g0, g1 int) {
	planeBytes := (n + 7) / 8
	var m [32]uint64
	mask := uint32(prefixMask(b, planes))
	for g := g0; g < g1; g++ {
		byteBase := g * 8
		nb := planeBytes - byteBase
		if nb >= 8 {
			for k := 0; k < b; k++ {
				m[32-planes+k] = binary.LittleEndian.Uint64(bits[k][byteBase : byteBase+8])
			}
		} else {
			for k := 0; k < b; k++ {
				var lane uint64
				for j := 0; j < nb; j++ {
					lane |= uint64(bits[k][byteBase+j]) << (8 * j)
				}
				m[32-planes+k] = lane
			}
		}
		transpose32x2(&m)
		base := g * 64
		cnt := min(n-base, 64)
		out := dst[base-64*g0:]
		lo, hi := out[:min(cnt, 32)], out[min(cnt, 32):cnt]
		for j := range lo {
			lo[j] = uint32(m[31-j]) & mask
		}
		for j := range hi {
			hi[j] = uint32(m[31-j]>>32) & mask
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

// wordsSmall is the word kernel for shallow prefixes (b ≤ 8): the full
// 64×64 transpose touches all 64 rows no matter how few planes are live, so
// a prefix this thin moves through 8×8 tiles instead — one packed-word
// transpose per 8 coefficients — and a 256-entry table maps each
// coefficient's prefix byte straight to its word (plane k at bit
// planes-1-k, exactly the masked word the wider kernels recover).
func wordsSmall[W uint32 | uint64](bits [][]byte, n int, dst []W, b, planes, g0, g1 int) {
	// A byte never holds bits at or above b (tile rows b..7 stay zero), so
	// only v < 2^b is filled: v with top bit k is v - 2^k plus plane k's bit.
	var lut [256]W
	for k := 0; k < b; k++ {
		bit := W(1) << uint(planes-1-k)
		for v := 1 << k; v < 2<<k; v++ {
			lut[v] = lut[v-1<<k] | bit
		}
	}
	planeBytes := (n + 7) / 8
	for g := g0; g < g1; g++ {
		hiByte := min((g+1)*8, planeBytes)
		for byteIx := g * 8; byteIx < hiByte; byteIx++ {
			// Tile row k = plane k's byte; rows b..7 stay zero.
			var x uint64
			for k := 0; k < b; k++ {
				x |= uint64(bits[k][byteIx]) << uint(8*k)
			}
			x = transpose8x8(x)
			base := byteIx * 8
			out := dst[base-64*g0 : base-64*g0+min(n-base, 8)]
			for j := range out {
				out[j] = lut[byte(x>>uint(8*j))]
			}
		}
	}
}

// prefixMask selects the bits of planes [0, b) of a planes-plane word.
func prefixMask(b, planes int) uint64 {
	return (uint64(1)<<uint(b) - 1) << uint(planes-b)
}

// foldBlock is the number of coefficients the fused encode pass quantizes,
// slices and folds at a time: the nega-binary fold's sorted words and
// coefficients (16 bytes each, 32 KiB) stay cache-resident across all of
// its plane passes.
const foldBlock = 2048

// foldErrors folds one block of at most foldBlock coefficients cs, with
// their nega-binary words ws, into acc, where acc[b] is the running maximum
// of |c_i - decode_b(c_i)|; sw and sc are foldBlock-sized scratch. It
// returns the number of (coefficient, plane) pairs it folded one by one.
//
// A word with h = bits.Len64(w) ≤ planes-b (every set digit below position
// planes-b) has an all-zero b-plane prefix, which decodes to exactly 0, so
// its error at prefix b is |c - 0·unit| = |c| bit for bit. The block is
// therefore counting-sorted by h, highest first: at prefix b the
// coefficients with h > planes-b are a prefix of the sorted block and are
// folded one by one, and the rest contribute one precomputed max of |c|
// over h ≤ planes-b. Max is exact and order-independent, so acc ends
// bit-identical to folding every pair — at Σh pairs instead of n·planes.
// Each folded error is computed from the same int64 DecodeNegabinary gives
// the masked word, so the float operations see the scalar pass's operands.
// Non-finite coefficients are skipped outright: no finite plane prefix
// bounds their error, and the scalar definition excludes them.
func foldErrors(cs []float64, ws, sw []uint64, sc []float64, unit float64, planes int, acc *[61]float64) (pairs int64) {
	cs = cs[:len(ws)]
	maxAbs := 0.0
	for _, c := range cs {
		if a := math.Abs(c); a > maxAbs && !math.IsInf(c, 0) {
			maxAbs = a
		}
	}
	acc[0] = max(acc[0], maxAbs)
	// e can only overflow to Inf when |c| + the largest possible decoded
	// magnitude reaches the float range (an Exponent near 1023); decided
	// once per block so the common case skips the per-element Inf
	// saturation test. The saturating path computes e from identical
	// operands, so the two variants are bit-identical wherever both are
	// finite.
	safe := maxAbs+float64(float64(uint64(1)<<uint(planes))*unit) < math.MaxFloat64
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
// function of its own so that the loop gets every register. A safe block
// of a level of at most 32 planes (mask < 2³²) folds its whole quads on the
// AVX2 kernel on CPUs that have it, and the Go loop takes the rest.
func foldPlane(ws []uint64, cs []float64, mask uint64, unit, maxErr float64, safe bool) float64 {
	cs = cs[:len(ws)]
	if n := len(ws) &^ 3; n > 0 && safe && encodeAVX2 && mask>>32 == 0 {
		maxErr = max(maxErr, foldAVX2(&ws[0], &cs[0], n, mask, unit))
		ws, cs = ws[n:], cs[n:]
	}
	if safe {
		for j, w := range ws {
			e := math.Abs(cs[j] - float64(float64(DecodeNegabinary(w&mask))*unit))
			if e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}
	for j, w := range ws {
		e := math.Abs(cs[j] - float64(float64(DecodeNegabinary(w&mask))*unit))
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
