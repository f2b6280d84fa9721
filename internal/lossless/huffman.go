package lossless

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Huffman returns a canonical byte-level Huffman codec — the entropy coder
// the real SZ uses. The stream stores the 256 code lengths (packed 4 bits
// each... actually one byte each for simplicity), then the bit stream.
// Inputs whose distribution is uniform gain nothing and may grow slightly;
// the plane segments and quantization codes it is used on are heavily
// skewed.
func Huffman() Codec { return huffmanCodec{} }

type huffmanCodec struct{}

// Name implements Codec.
func (huffmanCodec) Name() string { return "huffman" }

// maxCodeLen bounds code lengths; with ≤256 symbols depth ≤ 255 is already
// impossible to exceed 56 in practice, but the canonical rebuild guards it.
const maxCodeLen = 56

// buildLengths computes canonical Huffman code lengths from byte counts
// using the standard two-queue method over a sorted leaf list.
func buildLengths(counts [256]int64) ([256]uint8, error) {
	type node struct {
		weight      int64
		left, right int // indices into nodes, -1 for leaves
		symbol      int
	}
	var nodes []node
	var live []int
	for s, c := range counts {
		if c > 0 {
			nodes = append(nodes, node{weight: c, left: -1, right: -1, symbol: s})
			live = append(live, len(nodes)-1)
		}
	}
	var lengths [256]uint8
	switch len(live) {
	case 0:
		return lengths, nil
	case 1:
		lengths[nodes[live[0]].symbol] = 1
		return lengths, nil
	}
	// Simple O(n²) merging is fine for 256 symbols.
	for len(live) > 1 {
		sort.Slice(live, func(a, b int) bool { return nodes[live[a]].weight < nodes[live[b]].weight })
		a, b := live[0], live[1]
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, left: a, right: b, symbol: -1})
		live = append([]int{len(nodes) - 1}, live[2:]...)
	}
	// Depth-first walk assigning lengths.
	var walk func(ix int, depth uint8) error
	walk = func(ix int, depth uint8) error {
		n := nodes[ix]
		if n.left < 0 {
			if depth == 0 {
				depth = 1
			}
			if depth > maxCodeLen {
				return fmt.Errorf("lossless: huffman code length %d too deep", depth)
			}
			lengths[n.symbol] = depth
			return nil
		}
		if err := walk(n.left, depth+1); err != nil {
			return err
		}
		return walk(n.right, depth+1)
	}
	if err := walk(live[0], 0); err != nil {
		return lengths, err
	}
	return lengths, nil
}

// canonicalCodes assigns canonical codes from lengths: shorter codes first,
// ties broken by symbol value.
func canonicalCodes(lengths [256]uint8) [256]uint64 {
	type sym struct {
		s int
		l uint8
	}
	var syms []sym
	for s, l := range lengths {
		if l > 0 {
			syms = append(syms, sym{s: s, l: l})
		}
	}
	sort.Slice(syms, func(a, b int) bool {
		if syms[a].l != syms[b].l {
			return syms[a].l < syms[b].l
		}
		return syms[a].s < syms[b].s
	})
	var codes [256]uint64
	code := uint64(0)
	prevLen := uint8(0)
	for _, sm := range syms {
		code <<= (sm.l - prevLen)
		codes[sm.s] = code
		code++
		prevLen = sm.l
	}
	return codes
}

// Compress implements Codec.
func (huffmanCodec) Compress(src []byte) ([]byte, error) {
	var counts [256]int64
	for _, b := range src {
		counts[b]++
	}
	lengths, err := buildLengths(counts)
	if err != nil {
		return nil, err
	}
	codes := canonicalCodes(lengths)

	out := make([]byte, 0, len(src)/2+300)
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(src)))
	out = append(out, lenBuf[:]...)
	out = append(out, lengths[:]...)

	var acc uint64
	var nbits uint
	for _, b := range src {
		l := uint(lengths[b])
		acc = acc<<l | codes[b]
		nbits += l
		for nbits >= 8 {
			nbits -= 8
			out = append(out, byte(acc>>nbits))
		}
	}
	if nbits > 0 {
		out = append(out, byte(acc<<(8-nbits)))
	}
	return out, nil
}

// Decompress implements Codec.
func (huffmanCodec) Decompress(src []byte, size int) ([]byte, error) {
	if len(src) < 4+256 {
		return nil, fmt.Errorf("lossless: huffman stream too short")
	}
	n := int(binary.LittleEndian.Uint32(src[:4]))
	if n != size {
		return nil, fmt.Errorf("lossless: huffman decoded %d bytes, want %d", n, size)
	}
	var lengths [256]uint8
	copy(lengths[:], src[4:4+256])
	for _, l := range lengths {
		if l > maxCodeLen {
			return nil, fmt.Errorf("lossless: huffman code length %d corrupt", l)
		}
	}
	codes := canonicalCodes(lengths)

	// Build a decode table keyed by (length, code) via per-length maps.
	type key struct {
		l uint8
		c uint64
	}
	table := make(map[key]byte)
	nSyms := 0
	for s, l := range lengths {
		if l > 0 {
			table[key{l: l, c: codes[s]}] = byte(s)
			nSyms++
		}
	}
	if n > 0 && nSyms == 0 {
		return nil, fmt.Errorf("lossless: huffman stream has no symbols")
	}

	out := make([]byte, 0, n)
	payload := src[4+256:]
	var acc uint64
	var accLen uint8
	pos := 0
	for len(out) < n {
		// Extend the accumulator until some code matches.
		matched := false
		for l := uint8(1); l <= maxCodeLen; l++ {
			for accLen < l {
				if pos >= len(payload) {
					if accLen == 0 {
						return nil, fmt.Errorf("lossless: huffman stream truncated")
					}
					// Pad with zeros at stream end (flush bits).
					acc <<= 8
					accLen += 8
					pos++ // virtual
					continue
				}
				acc = acc<<8 | uint64(payload[pos])
				pos++
				accLen += 8
			}
			prefix := acc >> (accLen - l)
			if sym, ok := table[key{l: l, c: prefix}]; ok {
				out = append(out, sym)
				acc &= (uint64(1) << (accLen - l)) - 1
				accLen -= l
				matched = true
				break
			}
		}
		if !matched {
			return nil, fmt.Errorf("lossless: huffman stream corrupt at byte %d", len(out))
		}
	}
	return out, nil
}
