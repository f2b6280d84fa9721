// Package bufpool provides size-classed, sync.Pool-backed reuse of the
// pipeline's scratch and output buffers. The hot kernels — bit-plane
// encode/decode, the lossless stage, the serve-path plane fetches — run at
// a steady state where every call needs the same few buffer shapes; without
// reuse each call pays allocation and GC for memory whose lifetime is one
// call. The pools here make those paths allocation-free once warm.
//
// Slices are grouped into power-of-two capacity classes per element type.
// Get returns a slice of exactly the requested length whose *contents are
// undefined* — callers must fully overwrite (or clear) what they read.
// Put accepts any slice, including ones not allocated here; it files the
// slice under the largest class its capacity covers, so a later Get can
// always rely on the class's capacity floor.
//
// Both operations are allocation-free in steady state: the slice headers
// that sync.Pool boxes are themselves recycled through a side pool of
// containers, so neither Get nor Put heap-allocates once the pools are
// warm. All pools are safe for concurrent use.
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// numClasses bounds the capacity classes at 2^(numClasses-1) elements;
// larger requests fall through to plain make and are never pooled.
const numClasses = 31

// slicePool is a size-classed pool of []T. Each class's sync.Pool stores
// *[]T containers; the headers pool recycles empty containers so Put never
// has to allocate one.
type slicePool[T any] struct {
	class   [numClasses]sync.Pool
	headers sync.Pool
}

// classFor returns the smallest class c with 1<<c >= n (n >= 1).
func classFor(n int) int {
	return bits.Len(uint(n - 1))
}

// get returns a length-n slice with undefined contents.
func (p *slicePool[T]) get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := classFor(n)
	if c >= numClasses {
		news.Add(1)
		return make([]T, n)
	}
	if v := p.class[c].Get(); v != nil {
		h := v.(*[]T)
		s := (*h)[:n]
		*h = nil
		p.headers.Put(h)
		hits.Add(1)
		return s
	}
	news.Add(1)
	return make([]T, n, 1<<c)
}

// put files s for reuse. Slices too small for the smallest useful class
// (or too large to class) are dropped.
func (p *slicePool[T]) put(s []T) {
	cp := cap(s)
	if cp == 0 {
		return
	}
	c := bits.Len(uint(cp)) - 1 // largest c with 1<<c <= cp
	if c >= numClasses {
		c = numClasses - 1
	}
	var h *[]T
	if v := p.headers.Get(); v != nil {
		h = v.(*[]T)
	} else {
		h = new([]T)
	}
	*h = s[:0]
	p.class[c].Put(h)
	puts.Add(1)
}

var (
	bytePool    slicePool[byte]
	uint64Pool  slicePool[uint64]
	float64Pool slicePool[float64]
)

// Bytes returns a length-n byte slice with undefined contents.
func Bytes(n int) []byte { return bytePool.get(n) }

// PutBytes files s for reuse by a later Bytes call.
func PutBytes(s []byte) { bytePool.put(s) }

// Uint64s returns a length-n uint64 slice with undefined contents.
func Uint64s(n int) []uint64 { return uint64Pool.get(n) }

// PutUint64s files s for reuse by a later Uint64s call.
func PutUint64s(s []uint64) { uint64Pool.put(s) }

// Float64s returns a length-n float64 slice with undefined contents.
func Float64s(n int) []float64 { return float64Pool.get(n) }

// PutFloat64s files s for reuse by a later Float64s call.
func PutFloat64s(s []float64) { float64Pool.put(s) }

// Pool counters. The pools are process-wide, so their counters are too:
// they belong to no one registry and are read through Snapshot.
var hits, news, puts atomic.Int64

// Stats is a point-in-time view over the buffer-pool counters.
type Stats struct {
	// Hits counts Get calls served from a pooled buffer.
	Hits int64
	// News counts Get calls that had to allocate a fresh buffer.
	News int64
	// Puts counts buffers filed for reuse.
	Puts int64
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	return Stats{Hits: hits.Load(), News: news.Load(), Puts: puts.Load()}
}
