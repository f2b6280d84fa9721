package bitplane

import (
	"fmt"

	"pmgard/internal/cpufeat"
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

// DecodeWords writes the level's coefficients reconstructed from the first
// b planes, as held in w, into dst: coefficient i to dst[at[i]], or to
// dst[i] when at is nil — so a level decodes straight to its grid nodes.
// Every position named is overwritten, for every b (b = 0 and an all-zero
// level write zeros, and w is then not read and may be nil); nothing else of
// dst is touched. w must hold at least b planes of this level; a w of more
// planes decodes exactly its b-plane prefix, bit for bit what words of
// exactly b planes give.
//
// Coefficients are independent, so the output is identical for every worker
// count (≤ 0 means GOMAXPROCS).
//
// A non-nil o records a "bitplane.decode" span — a child of parent when
// that is set, a root otherwise — and counters bitplane.partial_decodes /
// bitplane.planes_decoded.
func (e *LevelEncoding) DecodeWords(w *Words, b int, dst []float64, at []int, workers int, o *obs.Obs, parent *obs.Span) {
	if o != nil {
		sp := o.Span("bitplane.decode", parent)
		sp.SetAttr("planes", b)
		defer func() {
			o.Counter("bitplane.partial_decodes").Add(1)
			o.Counter("bitplane.planes_decoded").Add(int64(b))
			sp.End()
		}()
	}
	if b < 0 || b > e.Planes {
		panic(fmt.Sprintf("bitplane: DecodeWords b=%d out of range [0,%d]", b, e.Planes))
	}
	if at == nil && len(dst) != e.N {
		panic(fmt.Sprintf("bitplane: DecodeWords into %d values, want %d", len(dst), e.N))
	}
	if at != nil && len(at) != e.N {
		panic(fmt.Sprintf("bitplane: DecodeWords into %d positions of %d, want %d", len(at), len(dst), e.N))
	}
	unit := e.unitSize()
	if unit == 0 || b == 0 {
		if at == nil {
			clear(dst)
		} else {
			for _, i := range at {
				dst[i] = 0
			}
		}
		return
	}
	if w == nil || w.Planes != e.Planes || w.Prefix < b || w.Len() != e.N {
		panic(fmt.Sprintf("bitplane: DecodeWords b=%d of a %d-plane level of %d from words that do not hold it", b, e.Planes, e.N))
	}
	groups := (e.N + 63) / 64
	if workers = pool.Clamp(workers); workers == 1 {
		e.decodeGroups(w, b, unit, dst, at, 0, groups)
		return
	}
	pool.RunChunks(groups, workers, nil, func(_, g0, g1 int) error {
		e.decodeGroups(w, b, unit, dst, at, g0, g1)
		return nil
	})
}

// decodeGroups decodes coefficient groups [g0, g1) of w into dst (see
// DecodeWords).
func (e *LevelEncoding) decodeGroups(w *Words, b int, unit float64, dst []float64, at []int, g0, g1 int) {
	lo, hi := 64*g0, min(64*g1, e.N)
	if at == nil {
		dst = dst[lo:hi]
	} else {
		at = at[lo:hi]
	}
	if e.Planes <= 32 {
		decodeWords(w.W32[lo:hi], dst, at, b, e.Planes, unit)
	} else {
		decodeWords(w.W64[lo:hi], dst, at, b, e.Planes, unit)
	}
}
