package bitplane

import (
	"fmt"

	"pmgard/internal/cpufeat"
	"pmgard/internal/interleave"
	"pmgard/internal/obs"
	"pmgard/internal/pool"
)

// Words is one level held word-major: coefficient i's plane word over planes
// [0, Prefix) of a Planes-plane encoding — plane k at bit Planes-1-k, every
// bit below the prefix zero. It is what a partial decode recovers from the
// plane bitsets before dequantizing, and any b ≤ Prefix decodes from it
// exactly as from the words of the first b planes. Levels of at most 32 planes keep
// 4-byte words in W32 — the bytes of the level's full set of plane bitsets
// at 32 planes — and wider levels 8-byte words in W64; the other slice is
// nil.
type Words struct {
	// Planes is the plane count of the level's encoding.
	Planes int
	// Prefix is how many of its planes the words hold.
	Prefix int
	// W32 holds the words of a level of at most 32 planes.
	W32 []uint32
	// W64 holds the words of a level of more than 32 planes.
	W64 []uint64
}

// Len returns the number of coefficients w holds.
func (w *Words) Len() int { return len(w.W32) + len(w.W64) }

// Size returns the bytes the words occupy.
func (w *Words) Size() int64 { return 4*int64(len(w.W32)) + 8*int64(len(w.W64)) }

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are undefined.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// TransposeWords fills w with the words of e's first b planes, reusing w's
// buffers when they are large enough (every word is overwritten, so they
// may hold anything on entry). b must be in [0, Planes].
//
// One kernel serves each regime, all recovering the identical words:
// shallow prefixes (b ≤ 8) move through 8×8 tiles, levels of at most 32
// planes through the half-width transpose, wider levels through the full
// 64-row one. Groups of 64 coefficients are independent, so the words are
// identical for every worker count (≤ 0 means GOMAXPROCS).
func (e *LevelEncoding) TransposeWords(b int, w *Words, workers int) {
	if b < 0 || b > e.Planes {
		panic(fmt.Sprintf("bitplane: TransposeWords b=%d out of range [0,%d]", b, e.Planes))
	}
	w.Planes, w.Prefix = e.Planes, b
	if e.Planes <= 32 {
		w.W32, w.W64 = resize(w.W32, e.N), nil
	} else {
		w.W32, w.W64 = nil, resize(w.W64, e.N)
	}
	groups := (e.N + 63) / 64
	if workers = pool.Clamp(workers); workers == 1 {
		e.transposeGroups(b, w, 0, groups)
		return
	}
	pool.RunChunks(groups, workers, nil, func(_, g0, g1 int) error {
		e.transposeGroups(b, w, g0, g1)
		return nil
	})
}

// transposeGroups runs the regime's kernel over coefficient groups [g0, g1)
// of w, which TransposeWords has sized: for a level of at most 32 planes the
// AVX2 kernel on CPUs that have it, the portable ones elsewhere.
func (e *LevelEncoding) transposeGroups(b int, w *Words, g0, g1 int) {
	switch {
	case e.Planes > 32 && b <= 8:
		wordsSmall(e.Bits, e.N, w.W64[64*g0:], b, e.Planes, g0, g1)
	case e.Planes > 32:
		wordsFull(e.Bits, e.N, w.W64[64*g0:], b, e.Planes, g0, g1)
	case cpufeat.AVX2 && b > 0:
		wordsAVX2(e.Bits, e.N, w.W32[64*g0:], b, e.Planes, g0, g1)
	case b <= 8:
		wordsSmall(e.Bits, e.N, w.W32[64*g0:], b, e.Planes, g0, g1)
	default:
		wordsHalf(e.Bits, e.N, w.W32[64*g0:], b, e.Planes, g0, g1)
	}
}

// LevelWords is one level's share of a Decode: the encoding that gives the
// level's size, plane count and scale (its Bits are not read), the words
// holding at least its first B planes, and B.
type LevelWords struct {
	Enc   *LevelEncoding
	Words *Words
	B     int
}

// Decode writes the coefficients of every level of levels, reconstructed
// from the level's first B planes as held in its words, to the grid nodes
// runs place them at: run r writes entries r.First, r.First+1, … of level
// r.Level's stream to dst[r.Off], dst[r.Off+r.Stride], …. Runs of a level
// beyond levels are skipped, so levels[:upTo+1] decodes exactly the levels
// a coarser reconstruction reads. Every node a decoded level's run names
// is overwritten, for every B (B = 0 and an all-zero level write zeros, and
// their words are then not read and may be nil); nothing else of dst is
// touched. A level's words may hold more planes than B: they decode exactly
// their B-plane prefix, bit for bit what words of exactly B planes give.
//
// Each node gets float64(DecodeNegabinary(w & prefix))·unit of its word w.
// Runs are taken in schedule order — a plan's schedule is row-major, so
// every level's nodes of a grid row are written while the row sits in
// cache — and split among workers in contiguous stretches (≤ 0 means
// GOMAXPROCS); fewer runs than workers, as in coefficient order, are first
// cut into pieces so every worker gets one. Runs are disjoint and every
// node is computed alone, so the output is identical for every worker
// count. Coefficient order is the case of one stride-1 run per level.
//
// A non-nil o records one "bitplane.decode" span — a child of parent when
// that is set, a root otherwise — with attrs levels and planes (ΣB), and
// counters bitplane.partial_decodes (+1 per level) /
// bitplane.planes_decoded (+B per level).
func Decode(levels []LevelWords, runs []interleave.Run, dst []float64, workers int, o *obs.Obs, parent *obs.Span) {
	if o != nil {
		planes := 0
		for _, lv := range levels {
			planes += lv.B
		}
		sp := o.Span("bitplane.decode", parent)
		sp.SetAttr("levels", len(levels))
		sp.SetAttr("planes", planes)
		defer func() {
			o.Counter("bitplane.partial_decodes").Add(int64(len(levels)))
			o.Counter("bitplane.planes_decoded").Add(int64(planes))
			sp.End()
		}()
	}
	if workers = pool.Clamp(workers); workers == 1 {
		// 32 levels cover every plan (at most 30), so one decode needs no
		// allocation.
		var buf [32]levelDecode
		decodeRuns(levelDecodes(buf[:0], levels), runs, dst)
		return
	}
	ps := levelDecodes(nil, levels)
	if len(runs) < workers {
		runs = splitRuns(runs, workers)
	}
	pool.RunChunks(len(runs), workers, nil, func(_, lo, hi int) error {
		decodeRuns(ps, runs[lo:hi], dst)
		return nil
	})
}

// splitRuns cuts each run into parts pieces of near-equal counts (fewer
// for a run of fewer than parts nodes), in order: the same nodes from the
// same stream entries.
func splitRuns(runs []interleave.Run, parts int) []interleave.Run {
	out := make([]interleave.Run, 0, len(runs)*parts)
	for _, r := range runs {
		for k := 0; k < parts; k++ {
			lo, hi := k*r.Count/parts, (k+1)*r.Count/parts
			if lo == hi {
				continue
			}
			p := r
			p.Off += lo * r.Stride
			p.First += lo
			p.Count = hi - lo
			out = append(out, p)
		}
	}
	return out
}

// levelDecode is what decoding one level's runs reads: its words (w32 for a
// level of at most 32 planes, w64 above), the B-plane prefix mask and the
// dequantization unit — 0 for a level that decodes to zeros.
type levelDecode struct {
	w32  []uint32
	w64  []uint64
	mask uint64
	unit float64
}

// levelDecodes appends each level's levelDecode to ps, panicking on a B out
// of range or on words that do not hold the level's B-plane prefix.
func levelDecodes(ps []levelDecode, levels []LevelWords) []levelDecode {
	for _, lv := range levels {
		e, w, b := lv.Enc, lv.Words, lv.B
		if b < 0 || b > e.Planes {
			panic(fmt.Sprintf("bitplane: Decode b=%d out of range [0,%d]", b, e.Planes))
		}
		unit := e.unitSize()
		if unit == 0 || b == 0 {
			ps = append(ps, levelDecode{})
			continue
		}
		if w == nil || w.Planes != e.Planes || w.Prefix < b || w.Len() != e.N {
			panic(fmt.Sprintf("bitplane: Decode b=%d of a %d-plane level of %d from words that do not hold it", b, e.Planes, e.N))
		}
		ps = append(ps, levelDecode{w32: w.W32, w64: w.W64, mask: prefixMask(b, e.Planes), unit: unit})
	}
	return ps
}

// decodeRuns decodes every run of a level in ps to its nodes of dst: a level
// of at most 32 planes through decodeRun32, a wider one through the Go
// loop.
func decodeRuns(ps []levelDecode, runs []interleave.Run, dst []float64) {
	for _, r := range runs {
		if r.Level >= len(ps) || r.Count == 0 {
			continue
		}
		if r.Stride < 1 {
			panic(fmt.Sprintf("bitplane: Decode run of stride %d", r.Stride))
		}
		p := &ps[r.Level]
		at := dst[r.Off : r.Off+(r.Count-1)*r.Stride+1]
		switch {
		case p.unit == 0:
			for j := 0; j < len(at); j += r.Stride {
				at[j] = 0
			}
		case p.w32 != nil:
			decodeRun32(at, r.Stride, p.w32[r.First:r.First+r.Count], p.mask, p.unit)
		default:
			decodeRunGo(at, r.Stride, p.w64[r.First:r.First+r.Count], p.mask, p.unit)
		}
	}
}

// decodeChunk bounds the words one assembly call decodes (512 KiB of
// output): a goroutine cannot be preempted inside the call, so a long run
// is handed over in chunks.
const decodeChunk = 1 << 16

// decodeRun32 writes the value of word ws[j] to dst[j·stride] for every j:
// on the AVX2 kernel when the CPU has it, the Go loop otherwise. Both give
// identical bits. dst holds (len(ws)−1)·stride+1 elements.
func decodeRun32(dst []float64, stride int, ws []uint32, mask uint64, unit float64) {
	if !cpufeat.AVX2 {
		decodeRunGo(dst, stride, ws, mask, unit)
		return
	}
	if len(ws) > 0 {
		_ = dst[(len(ws)-1)*stride]
	}
	for i := 0; i < len(ws); i += decodeChunk {
		decodeAVX2(&dst[i*stride], stride, &ws[i], min(decodeChunk, len(ws)-i), mask, unit)
	}
}

// decodeRunGo is the portable decode of one run: dst[j·stride] =
// float64(DecodeNegabinary(ws[j] & mask))·unit. It is the only path for
// words of more than 32 planes and for CPUs without AVX2.
func decodeRunGo[W uint32 | uint64](dst []float64, stride int, ws []W, mask uint64, unit float64) {
	if stride == 1 {
		dst = dst[:len(ws)]
		for j, w := range ws {
			dst[j] = float64(DecodeNegabinary(uint64(w)&mask)) * unit
		}
		return
	}
	for j, w := range ws {
		dst[j*stride] = float64(DecodeNegabinary(uint64(w)&mask)) * unit
	}
}
