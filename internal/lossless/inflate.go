package lossless

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// This file is the DEFLATE decoder (RFC 1951) behind deflateCodec. It
// inflates a segment straight into its exact-size output, which is also its
// window, and accepts exactly the streams compress/flate's reader accepts
// when the caller insists on size bytes followed by the end of the stream:
// the same Huffman completeness rule, HLIT ≤ 286 and HDIST ≤ 30, distance
// codes 30 and 31 and length codes 286 and 287 refused, a repeat code before
// any length refused, LEN/NLEN checked, and bytes after the final block
// ignored. FuzzInflateMatchesStdlib holds it to that.

// A table entry is one uint32: bits 0–7 the code length, bits 8–15 the kind
// flags below with a 4-bit count under them, bits 16–31 the value. An entry
// with none of the flags — the zero entry included — is a code the stream
// may not use.
const (
	litFlag  = 0x80 << 8 // value is a literal byte
	eobFlag  = 0x40 << 8 // end of block
	linkFlag = 0x20 << 8 // value is a subtable offset; count is its index width
	baseFlag = 0x10 << 8 // value is a length or distance base; count is its extra bits
)

// Primary table widths. Codes longer than the width continue in one level of
// subtables appended after the primary table, each as wide as the longest
// code needs. Every 11- or 9-bit prefix of a long code is shared by at least
// two codes of a complete code, so 286 literal/length codes need at most 143
// subtables of 16 entries, and 30 distance codes at most 15 of 64.
const (
	litBits       = 11
	distBits      = 9
	clenBits      = 7
	litTableSize  = 1<<litBits + 143<<(15-litBits)
	distTableSize = 1<<distBits + 15<<(15-distBits)

	maxNumLit  = 286
	maxNumDist = 30
)

var (
	errTruncated = errors.New("lossless: deflate stream ends early")
	errOverflow  = errors.New("lossless: deflate stream inflates past its size")
)

func corrupt(what string) error { return fmt.Errorf("lossless: corrupt deflate stream: %s", what) }

// Leaf values per symbol, without the code length: litVals for the
// literal/length alphabet (286 and 287 stay unusable), distVals for
// distances (30 and 31 stay unusable), clenVals for code-length codes.
var litVals, distVals, clenVals [288]uint32

// The fixed-Huffman tables of block type 1, built once.
var fixedLit [litTableSize]uint32
var fixedDist [distTableSize]uint32

// codeOrder is the order in which a dynamic header lists code-length code
// lengths.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func init() {
	for s := 0; s < 256; s++ {
		litVals[s] = uint32(s)<<16 | litFlag
	}
	litVals[256] = eobFlag
	for s, base := 257, uint32(3); s < 285; s++ {
		extra := uint32(0)
		if s >= 265 {
			extra = uint32(s-261) / 4
		}
		litVals[s] = base<<16 | baseFlag | extra<<8
		base += 1 << extra
	}
	litVals[285] = 258<<16 | baseFlag
	for s, base := 0, uint32(1); s < maxNumDist; s++ {
		extra := uint32(0)
		if s >= 4 {
			extra = uint32(s-2) / 2
		}
		distVals[s] = base<<16 | baseFlag | extra<<8
		base += 1 << extra
	}
	for s := 0; s < 19; s++ {
		clenVals[s] = uint32(s)<<16 | baseFlag
	}
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	buildTable(fixedLit[:], litBits, lens[:], litVals[:])
	for s := range lens[:32] {
		lens[s] = 5
	}
	buildTable(fixedDist[:], distBits, lens[:32], distVals[:])
}

// buildTable fills t with the decoding table of the canonical code that lens
// assigns (RFC 1951 §3.2.2), each leaf being vals[symbol] with its code
// length. It refuses what compress/flate refuses: an over-subscribed code,
// or an incomplete one other than a lone one-bit code. A code with no
// lengths at all is accepted and decodes nothing.
func buildTable(t []uint32, pbits uint, lens []uint8, vals []uint32) bool {
	var count, next [16]int
	maxLen := 0
	for _, n := range lens {
		count[n]++
		maxLen = max(maxLen, int(n))
	}
	prim := 1 << pbits
	if maxLen == 0 {
		clear(t[:prim])
		return true
	}
	count[0] = 0
	code := 0
	for n := 1; n <= maxLen; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	code += count[maxLen]
	if code != 1<<maxLen {
		if code != 1 || maxLen != 1 {
			return false
		}
		clear(t[:prim]) // the lone one-bit code leaves half the table unusable
	}
	subBits := 0
	if maxLen > int(pbits) {
		// Codes longer than pbits are the last ones in canonical order, so
		// their pbits-bit prefixes run from first to the end of the table.
		subBits = maxLen - int(pbits)
		first := next[pbits+1] >> 1
		for j := first; j < prim; j++ {
			off := prim + (j-first)<<subBits
			t[reverse(j, pbits)] = uint32(off)<<16 | linkFlag | uint32(subBits)<<8
		}
	}
	for s, n := range lens {
		if n == 0 {
			continue
		}
		rev := reverse(next[n], uint(n))
		next[n]++
		e := vals[s] | uint32(n)
		if uint(n) <= pbits {
			for i := rev; i < prim; i += 1 << n {
				t[i] = e
			}
			continue
		}
		sub := t[rev&(prim-1)] >> 16
		for i := rev >> pbits; i < 1<<subBits; i += 1 << (uint(n) - pbits) {
			t[int(sub)+i] = e
		}
	}
	return true
}

// reverse returns the low n bits of code in reverse order: DEFLATE packs
// Huffman codes most significant bit first into a least-significant-first
// bit stream.
func reverse(code int, n uint) int { return int(bits.Reverse16(uint16(code)) >> (16 - n)) }

// inflater is one decompression's bit reader plus the tables of its current
// dynamic block; inflaters are pooled so a block builds its tables without
// allocating.
type inflater struct {
	src  []byte
	in   int    // next byte of src to load into bb
	bb   uint64 // bit buffer, next stream bit lowest; bits above nb are zero or the stream's next bits
	nb   uint   // bits held in bb
	over uint   // zero bytes loaded past the end of src

	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	clen [1 << clenBits]uint32
	lens [maxNumLit + maxNumDist]uint8
}

var inflaters = sync.Pool{New: func() any { return new(inflater) }}

// inflate decodes the DEFLATE stream in src into a new size-byte slice. It
// fails unless the stream is complete and inflates to exactly size bytes.
func inflate(src []byte, size int) ([]byte, error) {
	out := make([]byte, size)
	f := inflaters.Get().(*inflater)
	f.src, f.in, f.bb, f.nb, f.over = src, 0, 0, 0, 0 // the tables are rebuilt per block
	n, err := f.run(out)
	f.src = nil // drop the segment reference before pooling
	inflaters.Put(f)
	if err != nil {
		return nil, err
	}
	if n != size {
		return nil, fmt.Errorf("lossless: deflate decoded %d bytes, want %d", n, size)
	}
	return out, nil
}

// run decodes blocks into out until the final one and returns the number of
// bytes written.
func (f *inflater) run(out []byte) (int, error) {
	pos := 0
	for final := false; !final; {
		if !f.refill() {
			return pos, errTruncated
		}
		final = f.bb&1 == 1
		typ := f.bb >> 1 & 3
		f.bb >>= 3
		f.nb -= 3
		var err error
		switch typ {
		case 0:
			pos, err = f.stored(out, pos)
		case 1:
			pos, err = f.huffman(out, pos, &fixedLit, &fixedDist)
		case 2:
			if err = f.dynamic(); err == nil {
				pos, err = f.huffman(out, pos, &f.lit, &f.dist)
			}
		default:
			err = corrupt("reserved block type")
		}
		if err != nil {
			return pos, err
		}
	}
	if f.over*8 > f.nb {
		return pos, errTruncated
	}
	return pos, nil
}

// refill tops bb up to at least 56 bits, eight bytes at a time while src
// has them and then one at a time, feeding zero bytes past its end. It
// reports false once the decoder has consumed one of those zero bits.
func (f *inflater) refill() bool {
	if f.in+8 <= len(f.src) {
		f.bb |= binary.LittleEndian.Uint64(f.src[f.in:]) << f.nb
		f.in += int(63-f.nb) >> 3
		f.nb |= 56
		return true
	}
	if f.over*8 > f.nb {
		return false
	}
	for ; f.nb <= 56; f.nb += 8 {
		if f.in < len(f.src) {
			f.bb |= uint64(f.src[f.in]) << f.nb
			f.in++
		} else {
			f.over++
		}
	}
	return true
}

// take consumes the next n ≤ 16 bits; the caller has refilled.
func (f *inflater) take(n uint) uint32 {
	v := uint32(f.bb & (1<<n - 1))
	f.bb >>= n
	f.nb -= n
	return v
}

// stored copies a stored block's bytes straight from src to out.
func (f *inflater) stored(out []byte, pos int) (int, error) {
	p := f.in + int(f.over) - int(f.nb/8) // the first byte boundary after the header
	if p > len(f.src) || len(f.src)-p < 4 {
		return pos, errTruncated
	}
	n := int(binary.LittleEndian.Uint16(f.src[p:]))
	if ^uint16(n) != binary.LittleEndian.Uint16(f.src[p+2:]) {
		return pos, corrupt("stored block length check")
	}
	p += 4
	if len(f.src)-p < n {
		return pos, errTruncated
	}
	if len(out)-pos < n {
		return pos, errOverflow
	}
	copy(out[pos:], f.src[p:p+n])
	f.in, f.bb, f.nb, f.over = p+n, 0, 0, 0
	return pos + n, nil
}

// dynamic reads a dynamic block's header into f.lit and f.dist.
func (f *inflater) dynamic() error {
	if !f.refill() {
		return errTruncated
	}
	h := f.take(14)
	nlit, ndist, nclen := int(h&31)+257, int(h>>5&31)+1, int(h>>10)+4
	if nlit > maxNumLit || ndist > maxNumDist {
		return corrupt("too many codes")
	}
	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if f.nb < 3 && !f.refill() {
			return errTruncated
		}
		clens[s] = uint8(f.take(3))
	}
	if !buildTable(f.clen[:], clenBits, clens[:], clenVals[:]) {
		return corrupt("bad code-length code")
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if f.nb < clenBits+7 && !f.refill() {
			return errTruncated
		}
		e := f.clen[f.bb&(1<<clenBits-1)]
		if e&baseFlag == 0 {
			return corrupt("bad code length")
		}
		f.take(uint(e & 0xff))
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return corrupt("repeat before the first code length")
			}
			rep, v = 3+int(f.take(2)), lens[i-1]
		case 17:
			rep = 3 + int(f.take(3))
		default:
			rep = 11 + int(f.take(7))
		}
		if rep > len(lens)-i {
			return corrupt("code lengths overrun")
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !buildTable(f.lit[:], litBits, lens[:nlit], litVals[:]) ||
		!buildTable(f.dist[:], distBits, lens[nlit:], distVals[:]) {
		return corrupt("bad literal/length or distance code")
	}
	return nil
}

// huffman decodes one Huffman-coded block into out from pos. It keeps the
// bit reader in locals and refills once per symbol pair: 56 bits cover two
// literals, or a literal and a length, or a length and a distance with their
// extra bits.
func (f *inflater) huffman(out []byte, pos int, lit *[litTableSize]uint32, dist *[distTableSize]uint32) (int, error) {
	src, in, bb, nb := f.src, f.in, f.bb, f.nb
	for {
		if in+8 <= len(src) {
			bb |= binary.LittleEndian.Uint64(src[in:]) << nb
			in += int(63-nb) >> 3
			nb |= 56
		} else {
			f.in, f.bb, f.nb = in, bb, nb
			if !f.refill() {
				return pos, errTruncated
			}
			in, bb, nb = f.in, f.bb, f.nb
		}
		e := lit[bb&(1<<litBits-1)]
		if e&linkFlag != 0 {
			e = lit[e>>16+uint32(bb>>litBits)&(1<<(e>>8&15)-1)]
		}
		if e&litFlag != 0 {
			bb >>= e & 0xff
			nb -= uint(e & 0xff)
			if pos >= len(out) {
				return pos, errOverflow
			}
			out[pos] = byte(e >> 16)
			pos++
			// At least 41 bits remain: enough for a second literal, or for
			// a length and its extra bits.
			e = lit[bb&(1<<litBits-1)]
			if e&linkFlag != 0 {
				e = lit[e>>16+uint32(bb>>litBits)&(1<<(e>>8&15)-1)]
			}
			if e&litFlag != 0 {
				bb >>= e & 0xff
				nb -= uint(e & 0xff)
				if pos >= len(out) {
					return pos, errOverflow
				}
				out[pos] = byte(e >> 16)
				pos++
				continue
			}
		}
		if e&baseFlag == 0 {
			if e&eobFlag == 0 {
				return pos, corrupt("bad literal/length code")
			}
			f.in, f.bb, f.nb = in, bb>>(e&0xff), nb-uint(e&0xff)
			return pos, nil
		}
		bb >>= e & 0xff
		nb -= uint(e & 0xff)
		x := e >> 8 & 15
		length := int(e>>16) + int(bb&(1<<x-1))
		bb >>= x
		nb -= uint(x)

		if nb < 15+13 {
			if in+8 <= len(src) {
				bb |= binary.LittleEndian.Uint64(src[in:]) << nb
				in += int(63-nb) >> 3
				nb |= 56
			} else {
				f.in, f.bb, f.nb = in, bb, nb
				if !f.refill() {
					return pos, errTruncated
				}
				in, bb, nb = f.in, f.bb, f.nb
			}
		}
		e = dist[bb&(1<<distBits-1)]
		if e&linkFlag != 0 {
			e = dist[e>>16+uint32(bb>>distBits)&(1<<(e>>8&15)-1)]
		}
		if e&baseFlag == 0 {
			return pos, corrupt("bad distance code")
		}
		bb >>= e & 0xff
		nb -= uint(e & 0xff)
		x = e >> 8 & 15
		d := int(e>>16) + int(bb&(1<<x-1))
		bb >>= x
		nb -= uint(x)
		if d > pos {
			return pos, corrupt("distance before the start of the output")
		}
		if length > len(out)-pos {
			return pos, errOverflow
		}
		// A match at distance d < length repeats its first d bytes; each
		// copy doubles the span it can read from.
		end := pos + length
		for from := pos - d; pos < end; {
			pos += copy(out[pos:end], out[from:pos])
		}
	}
}
