package core

import (
	"fmt"
	"sync"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/servecache"
)

// A session's reconstruction memory is sized by its field's shape — the
// grid its planes decode straight into and recompose in, the words buffers
// it transposes levels into when no cached snapshot covers them, and the
// per-level plane table the transpose reads — so a refinement that
// allocated it afresh would hand the garbage collector a field or more per
// request. Sessions of one shape instead draw it from a shared
// workspacePool and give it back on Close. Pooled buffers are dirty, and
// nothing clears them: bitplane.Decode overwrites every node of the levels
// a reconstruction decodes, TransposeWords every word of a level it
// transposes, RecomposeInto reads no other node of its grid, and a session
// reads plane k of level l only after fetching it.

// workspaceKey names the reconstructions one pool serves: the grid shape,
// the plane count, and the backend, transform options and recomposition
// worker count its decompositions are built with.
type workspaceKey struct {
	dims    string
	planes  int
	backend string
	opts    codec.Options
	workers int
}

// workspace is the shape-sized state of one session: the decomposition
// whose plan places the levels on the grid and whose transform recomposes
// it (a NewZero decomposition that never allocates its streams),
// planes[l][k] the plane bitsets fetched so far, one reusable LevelEncoding
// shell per level, words[l] the buffer level l is transposed into (nil
// until needed, and again once the cache has taken it as a snapshot),
// levels[l] level l's share of the one decode call, and the cache verdicts
// of one level's fetch.
type workspace struct {
	dec    codec.Decomposition
	planes [][][]byte
	encs   []bitplane.LevelEncoding
	words  []*bitplane.Words
	levels []bitplane.LevelWords
	slots  []servecache.Plane
}

// workspacePool recycles one shape's workspaces and full-shape grids.
// sync.Pool lets the garbage collector reclaim them once the shape goes
// idle.
type workspacePool struct {
	workspaces, grids sync.Pool
}

// workspacePools maps a workspaceKey to its *workspacePool.
var workspacePools sync.Map

// workspacePoolFor returns the pool of h's shape under backend at the given
// recomposition worker count.
func workspacePoolFor(h *Header, backend codec.ProgressiveCodec, workers int) *workspacePool {
	key := workspaceKey{dims: fmt.Sprint(h.Dims), planes: h.Planes, backend: backend.ID(), opts: h.CodecOptions(), workers: workers}
	if p, ok := workspacePools.Load(key); ok {
		return p.(*workspacePool)
	}
	p, _ := workspacePools.LoadOrStore(key, new(workspacePool))
	return p.(*workspacePool)
}

// take returns a pooled workspace, or a new one with an all-zero
// decomposition when the pool is empty; reused reports which.
func (p *workspacePool) take(h *Header, backend codec.ProgressiveCodec, workers int) (ws *workspace, reused bool, err error) {
	if ws, ok := p.workspaces.Get().(*workspace); ok {
		return ws, true, nil
	}
	dec, err := backend.NewZero(h.Dims, h.CodecOptions(), workers)
	if err != nil {
		return nil, false, err
	}
	ws = &workspace{
		dec:    dec,
		planes: make([][][]byte, len(h.Levels)),
		encs:   make([]bitplane.LevelEncoding, len(h.Levels)),
		words:  make([]*bitplane.Words, len(h.Levels)),
		levels: make([]bitplane.LevelWords, len(h.Levels)),
		slots:  make([]servecache.Plane, h.Planes),
	}
	flat := make([][]byte, len(h.Levels)*h.Planes)
	for l := range ws.planes {
		ws.planes[l] = flat[l*h.Planes : (l+1)*h.Planes : (l+1)*h.Planes]
	}
	return ws, false, nil
}

// put returns ws to the pool, first dropping its references to plane
// bitsets, word snapshots and errors so a pooled workspace pins no cache
// entry.
func (p *workspacePool) put(ws *workspace) {
	for l := range ws.planes {
		clear(ws.planes[l])
		ws.encs[l].Bits = nil
	}
	clear(ws.levels)
	clear(ws.slots)
	p.workspaces.Put(ws)
}

// takeGrid returns a pooled full-shape grid, or a new one when the pool is
// empty; reused reports which.
func (p *workspacePool) takeGrid(dims []int) (g *grid.Tensor, reused bool) {
	if g, ok := p.grids.Get().(*grid.Tensor); ok {
		return g, true
	}
	return grid.New(dims...), false
}
