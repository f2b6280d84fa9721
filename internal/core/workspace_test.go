package core

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/interleave"
	"pmgard/internal/obs"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// freshReconstruct is the reference no pool ever touches: a new all-zero
// decomposition, each level's first planes[l] planes read straight from the
// store and decoded, and the pinned Recompose (or, below the finest level,
// the streams placed on a fresh grid and RecomposeInto).
func freshReconstruct(t *testing.T, h *Header, c *Compressed, planes []int, upTo int) *grid.Tensor {
	t.Helper()
	dec := freshStreams(t, h, c, planes, upTo)
	if upTo == len(h.Levels)-1 {
		return dec.Recompose()
	}
	work := grid.New(h.Dims...)
	for l := 0; l <= upTo; l++ {
		dec.Plan().Inject(work.Data(), l, dec.Coeffs(l))
	}
	rec, err := dec.RecomposeInto(upTo, work)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// freshStreams is a new all-zero decomposition whose levels 0..upTo hold
// the coefficients decoded, in coefficient order, from each level's first
// planes[l] planes read straight from the store.
func freshStreams(t *testing.T, h *Header, c *Compressed, planes []int, upTo int) codec.Decomposition {
	t.Helper()
	store, err := NewPlaneStore(h, c)
	if err != nil {
		t.Fatal(err)
	}
	backend, err := h.backend()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := backend.NewZero(h.Dims, h.CodecOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l <= upTo; l++ {
		lm := h.Levels[l]
		enc := &bitplane.LevelEncoding{N: lm.N, Planes: h.Planes, Exponent: lm.Exponent, Bits: make([][]byte, h.Planes)}
		for k := 0; k < planes[l]; k++ {
			got := store.FetchPlanes(context.Background(), h.PlaneRun(l, []int{k}))
			if got[0].Err != nil {
				t.Fatal(got[0].Err)
			}
			enc.Bits[k] = got[0].Raw
		}
		backend.DecodeLevel(enc, planes[l], dec.Coeffs(l), 1, nil)
	}
	return dec
}

// TestDecodeIntoWritesExactlyItsLevels pins what lets a session decode into
// a dirty pooled grid, on both backends: a NaN-poisoned grid is fully
// written by a full-field decode, and a decode up to a coarser level writes
// exactly the nodes of levels 0..upTo — each with the value its level's
// coefficient-order decode gives, a level of no planes zeros — and leaves
// every other node's poison untouched.
func TestDecodeIntoWritesExactlyItsLevels(t *testing.T) {
	const poison = 0x7FF80000DEAD0001
	for _, backend := range []string{"mgard", "interp"} {
		cfg := DefaultConfig()
		cfg.Backend = backend
		c, err := Compress(seededField(7, 17, 9, 33), cfg, "poison", 0)
		if err != nil {
			t.Fatal(err)
		}
		h := &c.Header
		L := len(h.Levels)
		planes := make([]int, L)
		for l := range planes {
			planes[l] = []int{h.Planes, 9, 0, 17}[l%4]
		}
		s, err := NewSession(h, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RefineTo(context.Background(), planes); err != nil {
			t.Fatal(err)
		}
		want := freshStreams(t, h, c, planes, L-1)
		for upTo := 0; upTo < L; upTo++ {
			work := grid.New(h.Dims...)
			for i := range work.Data() {
				work.Data()[i] = math.Float64frombits(poison)
			}
			s.mu.Lock()
			s.decodeInto(work, upTo, nil)
			s.mu.Unlock()
			for l := 0; l < L; l++ {
				for i, off := range levelOffsets(want.Plan(), l) {
					got, exp := math.Float64bits(work.Data()[off]), uint64(poison)
					if l <= upTo {
						exp = math.Float64bits(want.Coeffs(l)[i])
					}
					if got != exp {
						t.Fatalf("%s upTo=%d: level %d node %d (offset %d) = %#x, want %#x", backend, upTo, l, i, off, got, exp)
					}
				}
			}
		}
		s.Close()
	}
}

// crcOf is serve's response checksum of a reconstruction.
func crcOf(t *grid.Tensor) uint32 {
	h := crc32.NewIEEE()
	var b [8]byte
	for _, v := range t.Data() {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum32()
}

// requireSameTensor fails unless got and want agree in shape and bit for
// bit.
func requireSameTensor(t *testing.T, label string, got, want *grid.Tensor) {
	t.Helper()
	if !grid.SameDims(got, want) {
		t.Fatalf("%s: dims %v, want %v", label, got.Dims(), want.Dims())
	}
	if g, w := crcOf(got), crcOf(want); g != w {
		t.Fatalf("%s: checksum %08x, want %08x (a fresh decomposition's)", label, g, w)
	}
	for i, v := range got.Data() {
		if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
			t.Fatalf("%s: sample %d = %v, want %v", label, i, v, want.Data()[i])
		}
	}
}

// poisonWorkspaces fills the words buffers of every pooled workspace (made
// level-sized first where a workspace has none) and every pooled grid of
// h's shape with NaN bit patterns, and adds one more poisoned workspace and
// grid per pool, so a later taker finds poison whichever processor it runs
// on (a sync.Pool hands a processor's private item only to that processor).
func poisonWorkspaces(t *testing.T, h *Header) {
	t.Helper()
	backend, err := h.backend()
	if err != nil {
		t.Fatal(err)
	}
	nan := func(s []float64) {
		for i := range s {
			s[i] = math.NaN()
		}
	}
	nanWords := func(w *bitplane.Words, n int) {
		if h.Planes <= 32 {
			w.W32 = make([]uint32, n)
			for i := range w.W32 {
				w.W32[i] = math.Float32bits(float32(math.NaN()))
			}
			return
		}
		w.W64 = make([]uint64, n)
		for i := range w.W64 {
			w.W64[i] = math.Float64bits(math.NaN())
		}
	}
	workspacePools.Range(func(k, v any) bool {
		key, p := k.(workspaceKey), v.(*workspacePool)
		if key.dims != fmt.Sprint(h.Dims) || key.backend != backend.ID() {
			return true
		}
		var wss []*workspace
		for {
			ws, ok := p.workspaces.Get().(*workspace)
			if !ok {
				break
			}
			wss = append(wss, ws)
		}
		extra, _, err := (&workspacePool{}).take(h, backend, key.workers)
		if err != nil {
			t.Fatal(err)
		}
		for _, ws := range append(wss, extra) {
			for l := range ws.words {
				if ws.words[l] == nil {
					ws.words[l] = new(bitplane.Words)
				}
				nanWords(ws.words[l], h.Levels[l].N)
			}
			p.workspaces.Put(ws)
		}
		var grids []*grid.Tensor
		for {
			g, ok := p.grids.Get().(*grid.Tensor)
			if !ok {
				break
			}
			grids = append(grids, g)
		}
		for _, g := range append(grids, grid.New(h.Dims...)) {
			nan(g.Data())
			p.grids.Put(g)
		}
		return true
	})
}

// pauseGC disables the collector for the rest of the test, so pooled
// workspaces stay pooled.
func pauseGC(t *testing.T) {
	old := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(old) })
}

// publishFullSnapshots fetches every plane of h's levels through cache and
// publishes each level's words over all of its planes.
func publishFullSnapshots(t *testing.T, h *Header, c *Compressed, cache *servecache.Cache) {
	t.Helper()
	store, err := NewPlaneStore(h, c)
	if err != nil {
		t.Fatal(err)
	}
	for l, lm := range h.Levels {
		run := h.PlaneRun(l, planeIndexes[:h.Planes])
		enc := bitplane.LevelEncoding{N: lm.N, Planes: h.Planes, Exponent: lm.Exponent, Bits: make([][]byte, h.Planes)}
		for k, p := range cache.Get(context.Background(), run, store, nil) {
			if p.Err != nil {
				t.Fatal(p.Err)
			}
			enc.Bits[k] = p.Raw
		}
		w := new(bitplane.Words)
		enc.TransposeWords(h.Planes, w, 1)
		if !cache.PublishSnapshot(run.LevelKey(), w) && cache.Snapshot(run.LevelKey()).Prefix != h.Planes {
			t.Fatalf("level %d: a snapshot of all %d planes was refused", l, h.Planes)
		}
	}
}

// TestWorkspacePoisonedReuse proves a reused workspace needs no clearing:
// after a refine and Close, every pooled words buffer and grid is
// overwritten with NaN bits, and refines of a different field at loose and
// tight tolerances, a loose refine decoding from snapshots of every plane,
// a coarse session reconstruction and a RetrieveResolution must still equal
// the reconstructions of a decomposition no pool touched, for both
// backends.
func TestWorkspacePoisonedReuse(t *testing.T) {
	pauseGC(t)
	ctx := context.Background()
	dims := []int{17, 9, 13}
	for _, backend := range []string{"mgard", "interp"} {
		cfg := DefaultConfig()
		cfg.Backend = backend
		compress := func(seed int64) *Compressed {
			c, err := Compress(seededField(seed, dims...), cfg, fmt.Sprintf("f%d", seed), 0)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		a, b := compress(1), compress(2)
		ha, hb := &a.Header, &b.Header
		cache := servecache.New(0, nil)

		first, err := openShared(ha, a, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := first.Refine(ctx, ha.TheoryBound(), ha.AbsTolerance(1e-3)); err != nil {
			t.Fatal(err)
		}
		first.Close()

		for _, rel := range []float64{1e-1, 1e-5} {
			label := fmt.Sprintf("%s rel %g", backend, rel)
			poisonWorkspaces(t, hb)
			o := obs.New()
			s, err := openShared(hb, b, cache)
			if err != nil {
				t.Fatal(err)
			}
			s.Instrument(o)
			rec, plan, _, err := s.Refine(ctx, hb.TheoryBound(), hb.AbsTolerance(rel))
			if err != nil {
				t.Fatal(err)
			}
			requireSameTensor(t, label, rec, freshReconstruct(t, hb, b, plan.Planes, len(hb.Levels)-1))
			// Under the race detector sync.Pool drops items at random, so
			// only the reconstructions are checked there.
			if raceEnabled {
				s.Close()
				continue
			}
			if got := o.Counter("core.session.workspace_reused").Value(); got != 2 {
				t.Fatalf("%s: workspace_reused = %d, want 2 (the poisoned decomposition and grid)", label, got)
			}
			if got := o.Counter("core.session.workspace_allocated").Value(); got != 0 {
				t.Fatalf("%s: workspace_allocated = %d, want 0", label, got)
			}
			s.Close()
		}

		// Snapshots holding every plane serve a loose refine: each level
		// decodes exactly the prefix the session fetched from words of more.
		publishFullSnapshots(t, hb, b, cache)
		poisonWorkspaces(t, hb)
		o := obs.New()
		s, err := openShared(hb, b, cache)
		if err != nil {
			t.Fatal(err)
		}
		s.Instrument(o)
		rec, plan, _, err := s.Refine(ctx, hb.TheoryBound(), hb.AbsTolerance(1e-1))
		if err != nil {
			t.Fatal(err)
		}
		requireSameTensor(t, backend+" from snapshots of every plane", rec, freshReconstruct(t, hb, b, plan.Planes, len(hb.Levels)-1))
		if hits, built := o.Counter("core.session.snapshot_hits").Value(), o.Counter("core.session.snapshots_built").Value(); hits == 0 || built != 0 {
			t.Fatalf("%s: %d levels from snapshots and %d transposed, want every level from a snapshot", backend, hits, built)
		}
		for l, n := range plan.Planes {
			if n >= hb.Planes {
				t.Fatalf("%s: level %d fetched all %d planes at rel 1e-1; the snapshots must hold more than the session fetched", backend, l, n)
			}
		}
		s.Close()

		// Coarse reconstructions read only the levels they keep: NaN in the
		// rest of the workspace grid must not leak.
		upTo := len(hb.Levels) - 3
		planes := make([]int, len(hb.Levels))
		for l := 0; l <= upTo; l++ {
			planes[l] = hb.Planes / 2
		}
		want := freshReconstruct(t, hb, b, planes, upTo)
		poisonWorkspaces(t, hb)
		s, err = openShared(hb, b, cache)
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := s.refineTo(ctx, planes, upTo)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTensor(t, backend+" session upTo", coarse, want)
		s.Close()

		// The full field from the same planes decodes the finer levels at
		// b = 0, which must overwrite their poisoned nodes with zeros.
		poisonWorkspaces(t, hb)
		s, err = openShared(hb, b, cache)
		if err != nil {
			t.Fatal(err)
		}
		full, err := s.RefineTo(ctx, planes)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTensor(t, backend+" zero-plane levels", full, freshReconstruct(t, hb, b, planes, len(hb.Levels)-1))
		s.Close()

		// The one-shot read's pool (one worker) gets poison too.
		be, err := hb.backend()
		if err != nil {
			t.Fatal(err)
		}
		workspacePoolFor(hb, be, 1)
		poisonWorkspaces(t, hb)
		coarse, _, err = RetrieveResolution(ctx, hb, b, planes, upTo, RetrieveOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		requireSameTensor(t, backend+" RetrieveResolution", coarse, want)
	}
}

// TestSessionClose pins the Close contract's edges: Close is idempotent, a
// refinement after it fails, and the tensor of an earlier refinement — never
// recycled — survives the Close and later sessions' reuse.
func TestSessionClose(t *testing.T) {
	pauseGC(t)
	ctx := context.Background()
	c, err := Compress(seededField(3, 9, 9, 9), DefaultConfig(), "g", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	cache := servecache.New(0, nil)
	s, err := openShared(h, c, cache)
	if err != nil {
		t.Fatal(err)
	}
	early, plan, _, err := s.Refine(ctx, h.TheoryBound(), h.AbsTolerance(1e-1))
	if err != nil {
		t.Fatal(err)
	}
	keep := early.Clone()
	if _, _, _, err := s.Refine(ctx, h.TheoryBound(), h.AbsTolerance(1e-4)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if _, _, _, err := s.Refine(ctx, h.TheoryBound(), h.AbsTolerance(1e-4)); err != errSessionClosed {
		t.Fatalf("Refine after Close: %v, want %v", err, errSessionClosed)
	}
	if _, err := s.RefineTo(ctx, plan.Planes); err != errSessionClosed {
		t.Fatalf("RefineTo after Close: %v, want %v", err, errSessionClosed)
	}
	poisonWorkspaces(t, h)
	for i := 0; i < 3; i++ {
		next, err := openShared(h, c, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := next.Refine(ctx, h.TheoryBound(), h.AbsTolerance(1e-6)); err != nil {
			t.Fatal(err)
		}
		next.Close()
	}
	requireSameTensor(t, "earlier refinement after Close", early, keep)
}

// TestRefineConcurrentWorkspaces runs refines of one shape on several
// goroutines, each taking and returning a pooled workspace per request: every
// reconstruction must equal the pool-free reference, and under -race no two
// sessions may share a workspace.
func TestRefineConcurrentWorkspaces(t *testing.T) {
	ctx := context.Background()
	c, err := Compress(seededField(4, 17, 9, 9), DefaultConfig(), "h", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	cache := servecache.New(0, nil)
	rels := []float64{1e-1, 1e-3, 1e-5}
	wants := make([]*grid.Tensor, len(rels))
	for i, rel := range rels {
		s, err := openShared(h, c, cache)
		if err != nil {
			t.Fatal(err)
		}
		_, plan, _, err := s.Refine(ctx, h.TheoryBound(), h.AbsTolerance(rel))
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		wants[i] = freshReconstruct(t, h, c, plan.Planes, len(h.Levels)-1)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := (g + i) % len(rels)
				s, err := openShared(h, c, cache)
				if err != nil {
					errs <- err
					return
				}
				rec, _, _, err := s.Refine(ctx, h.TheoryBound(), h.AbsTolerance(rels[k]))
				if err != nil {
					errs <- err
					return
				}
				if crcOf(rec) != crcOf(wants[k]) {
					errs <- fmt.Errorf("goroutine %d refine %d (rel %g): checksum %08x, want %08x", g, i, rels[k], crcOf(rec), crcOf(wants[k]))
					return
				}
				s.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRefineSteadyStateAllocs pins the reused workspace: once warm, a
// shared session's open → Refine → Close allocates well under the field's
// size per request (it allocated about twice the field before workspaces
// were pooled).
func TestRefineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations distort the measure")
	}
	pauseGC(t)
	ctx := context.Background()
	c, err := Compress(seededField(5, 33, 33, 33), DefaultConfig(), "alloc", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := &c.Header
	store, err := NewPlaneStore(h, c)
	if err != nil {
		t.Fatal(err)
	}
	cache := servecache.New(0, nil)
	tol := h.AbsTolerance(1e-4)
	refine := func() {
		s, err := NewSharedSession(h, store, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := s.Refine(ctx, h.TheoryBound(), tol); err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	refine() // warm the plane cache and the workspace pool
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		refine()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	field := float64(8 * 33 * 33 * 33)
	t.Logf("warm refine allocates %.0f B/op, %.2f%% of the %.0f-byte field", perOp, 100*perOp/field, field)
	if perOp >= 0.05*field {
		t.Fatalf("warm refine allocates %.0f B/op, want < 5%% of the field's %.0f bytes", perOp, field)
	}
}

// TestSessionRejectsLevelMismatch pins the open-time check that a header's
// level list matches its transform: a session sized from the one and
// decoding into the other would index past either.
func TestSessionRejectsLevelMismatch(t *testing.T) {
	c, err := Compress(seededField(6, 9, 9), DefaultConfig(), "m", 0)
	if err != nil {
		t.Fatal(err)
	}
	h := c.Header
	h.Levels = append(h.Levels, h.Levels[len(h.Levels)-1])
	if _, err := NewSession(&h, c); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("NewSession over %d levels of a %d-level transform: %v, want ErrCorrupt", len(h.Levels), h.DecomposeLevels, err)
	}
}

// levelOffsets expands level l's node offsets, in stream order, from the
// plan's run schedule: stream entry r.First+j is node r.Off+j·r.Stride.
func levelOffsets(p *interleave.Plan, l int) []int {
	out := make([]int, p.LevelSizes()[l])
	for _, r := range p.Runs() {
		if r.Level != l {
			continue
		}
		for j := 0; j < r.Count; j++ {
			out[r.First+j] = r.Off + j*r.Stride
		}
	}
	return out
}
