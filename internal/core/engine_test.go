package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pmgard/internal/grid"
	"pmgard/internal/leakcheck"
	"pmgard/internal/obs"
	"pmgard/internal/retrieval"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// misdirectedSource answers one (level, plane) with the next plane's
// segment — a store whose index is off by one, every payload intact.
type misdirectedSource struct {
	src          storage.SegmentSource
	level, plane int
}

func (m misdirectedSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if level == m.level && plane == m.plane {
		plane++
	}
	return m.src.Segment(ctx, level, plane)
}

// TestReadPathsRejectMisdirectedSegment: every read path validates a
// segment against the manifest before decoding it. A wrong plane's payload
// is corruption — permanent, and never a tensor.
func TestReadPathsRejectMisdirectedSegment(t *testing.T) {
	h, c := sharedFixture(t)
	finest := len(h.Levels) - 1
	sizes := h.Levels[finest].PlaneSizes
	k := 0
	for k+1 < len(sizes) && sizes[k] == sizes[k+1] {
		k++
	}
	est, tol := h.TheoryEstimator(), h.AbsTolerance(1e-6)
	plan, err := retrieval.GreedyPlan(h.LevelInfos(), est, tol)
	if err != nil {
		t.Fatal(err)
	}
	if k+1 >= len(sizes) || plan.Planes[finest] <= k {
		t.Fatalf("fixture: no misdirectable plane on level %d inside the plan %v (sizes %v)", finest, plan.Planes, sizes)
	}
	src := misdirectedSource{src: c, level: finest, plane: k}
	ctx := context.Background()
	paths := []struct {
		name string
		read func() (*grid.Tensor, error)
	}{
		{"Retrieve", func() (*grid.Tensor, error) { return Retrieve(ctx, h, src, plan, RetrieveOptions{}) }},
		{"RetrievePlanes", func() (*grid.Tensor, error) {
			rec, _, err := RetrievePlanes(ctx, h, src, plan.Planes, RetrieveOptions{})
			return rec, err
		}},
		{"RetrieveTolerance", func() (*grid.Tensor, error) {
			rec, _, err := RetrieveTolerance(ctx, h, src, est, tol, RetrieveOptions{})
			return rec, err
		}},
		{"RetrieveResolution", func() (*grid.Tensor, error) {
			rec, _, err := RetrieveResolution(ctx, h, src, plan.Planes, finest, RetrieveOptions{})
			return rec, err
		}},
		{"Session.RefineTo", func() (*grid.Tensor, error) {
			s, err := NewSession(h, src)
			if err != nil {
				return nil, err
			}
			return s.RefineTo(ctx, plan.Planes)
		}},
		{"shared session, cold cache", func() (*grid.Tensor, error) {
			s, err := openShared(h, src, servecache.New(0, nil))
			if err != nil {
				return nil, err
			}
			return s.RefineTo(ctx, plan.Planes)
		}},
	}
	for _, p := range paths {
		rec, err := p.read()
		if rec != nil {
			t.Errorf("%s returned a tensor (L∞ %g off the intact read)", p.name, grid.MaxAbsDiff(rec, mustRetrieve(t, h, c, plan)))
		}
		if !errors.Is(err, storage.ErrCorrupt) || storage.Classify(err) != storage.FaultPermanent {
			t.Errorf("%s: err = %v, want a permanent storage.ErrCorrupt", p.name, err)
		}
	}
}

// TestReadPathsDegradeAroundRottedMedia: media that rots or loses its tail
// under an open store reads the same on both on-disk layouts written from
// one Compressed — permanent storage.ErrCorrupt, quarantined by the retry
// layer after one attempt — and a session degrades around the plane with a
// bound that holds on the original field.
func TestReadPathsDegradeAroundRottedMedia(t *testing.T) {
	f := testField(t)
	h, c := sharedFixture(t)
	hier, err := storage.DefaultHierarchy(len(h.Levels))
	if err != nil {
		t.Fatal(err)
	}
	const level, plane = 1, 3
	var before int64 // payload bytes of the level's planes below the damaged one
	for _, sz := range h.Levels[level].PlaneSizes[:plane] {
		before += sz
	}
	if h.Levels[level].PlaneSizes[plane] == 0 {
		t.Fatalf("fixture: plane (%d,%d) is empty", level, plane)
	}
	// Each layout writes c and reports the file and offset plane (level,
	// plane)'s payload starts at.
	layouts := []struct {
		name  string
		write func(t *testing.T, path string) (file string, offset int64)
	}{
		{"flat", func(t *testing.T, path string) (string, int64) {
			if err := c.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// The data section ends the file, in (level, plane) order.
			offset := fi.Size() - h.TotalBytes() + before
			for _, lm := range h.Levels[:level] {
				for _, sz := range lm.PlaneSizes {
					offset += sz
				}
			}
			return path, offset
		}},
		{"tiered", func(t *testing.T, path string) (string, int64) {
			if err := c.WriteTiered(path, hier); err != nil {
				t.Fatal(err)
			}
			tier := hier.Tiers[hier.Placement[level]].Name
			return filepath.Join(path, tier, fmt.Sprintf("level_%d.seg", level)), before
		}},
	}
	damages := []struct {
		name   string
		damage func(t *testing.T, file string, offset int64)
	}{
		{"one flipped payload byte", func(t *testing.T, file string, offset int64) {
			blob, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			blob[offset] ^= 0x01
			if err := os.WriteFile(file, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"file truncated inside the plane", func(t *testing.T, file string, offset int64) {
			if err := os.Truncate(file, offset+1); err != nil {
				t.Fatal(err)
			}
		}},
	}
	ctx := context.Background()
	est, tol := h.TheoryEstimator(), h.AbsTolerance(1e-5)
	for _, lay := range layouts {
		for _, d := range damages {
			t.Run(lay.name+"/"+d.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "artifact")
				file, offset := lay.write(t, path)
				_, st, err := OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				// The store has the file open when the media goes bad.
				if _, err := st.Segment(ctx, level, 0); err != nil {
					t.Fatal(err)
				}
				d.damage(t, file, offset)

				_, err = st.Segment(ctx, level, plane)
				if !errors.Is(err, storage.ErrCorrupt) || storage.Classify(err) != storage.FaultPermanent {
					t.Fatalf("read of the damaged plane: %v, want a permanent storage.ErrCorrupt", err)
				}
				reads := &countingSource{src: st}
				retrying := storage.NewRetryingSource(reads, storage.RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {}}, nil)
				if _, err := retrying.Segment(ctx, level, plane); !errors.Is(err, storage.ErrPermanent) {
					t.Fatalf("retry layer: %v, want a quarantine", err)
				}
				if n, q := reads.reads.Load(), retrying.Quarantined(); n != 1 || len(q) != 1 || q[0] != (storage.SegmentID{Level: level, Plane: plane}) {
					t.Fatalf("retry layer made %d attempts and quarantined %v, want 1 attempt and the damaged plane", n, q)
				}

				s, err := NewSession(h, retrying)
				if err != nil {
					t.Fatal(err)
				}
				rec, _, deg, err := s.Refine(ctx, est, tol)
				if err != nil {
					t.Fatalf("Refine over the damaged plane: %v, want a degradation report", err)
				}
				// A flat file cut short loses the levels behind the plane too.
				if deg == nil || len(deg.Dropped) == 0 || deg.Dropped[0] != (storage.SegmentID{Level: level, Plane: plane}) {
					t.Fatalf("degradation %+v, want plane (%d,%d) dropped first", deg, level, plane)
				}
				if deg.Requested[level] <= plane || deg.Got[level] != plane {
					t.Fatalf("level %d: requested %d, got %d planes; want the %d below the damage", level, deg.Requested[level], deg.Got[level], plane)
				}
				if achieved := grid.MaxAbsDiff(f, rec); achieved > deg.AchievedBound {
					t.Fatalf("achieved L∞ %g on the original exceeds the degraded bound %g", achieved, deg.AchievedBound)
				}
			})
		}
	}
}

func mustRetrieve(t *testing.T, h *Header, src storage.SegmentSource, plan retrieval.Plan) *grid.Tensor {
	t.Helper()
	rec, err := Retrieve(context.Background(), h, src, plan, RetrieveOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// readResult is what one read path reports for the equivalence table.
type readResult struct {
	rec     *grid.Tensor
	fetched []int
	bytes   int64
}

// sessionResult refines s to planes and collects its accounting.
func sessionResult(s *Session, planes []int) (readResult, error) {
	rec, err := s.RefineTo(context.Background(), planes)
	return readResult{rec, s.Fetched(), s.BytesFetched()}, err
}

// TestReadPathEquivalence is the read-path slice of the {estimator} ×
// {path} matrix: every way of reading a field to a tolerance — one-shot,
// fresh session, shared session cold, warm and decoding every level from
// the word snapshots the cold one published, a session tightened in three
// steps — on every backend and worker count reconstructs the same bits,
// accounts the same planes and bytes, and lands within the tolerance on the
// original field.
func TestReadPathEquivalence(t *testing.T) {
	f := testField(t)
	rels := []float64{1e-1, 1e-3, 1e-5}
	ctx := context.Background()
	for _, backend := range []string{"mgard", "interp"} {
		cfg := DefaultConfig()
		cfg.Backend = backend
		c, err := Compress(f, cfg, "Ex", 0)
		if err != nil {
			t.Fatal(err)
		}
		h := &c.Header
		est := h.TheoryEstimator()
		// The reference per tolerance: the sequential one-shot read.
		plans := make([]retrieval.Plan, len(rels))
		refs := make([]*grid.Tensor, len(rels))
		for i, rel := range rels {
			tol := h.AbsTolerance(rel)
			if refs[i], plans[i], err = RetrieveTolerance(ctx, h, c, est, tol, RetrieveOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			if got := grid.MaxAbsDiff(f, refs[i]); got > tol {
				t.Fatalf("%s rel %g: achieved L∞ %g exceeds the tolerance %g", backend, rel, got, tol)
			}
		}
		plan, want := plans[len(rels)-1], refs[len(rels)-1]
		for _, workers := range []int{1, 2, 4} {
			store, err := NewPlaneStore(h, c)
			if err != nil {
				t.Fatal(err)
			}
			open := func(cache *servecache.Cache) *Session {
				s, err := newSession(h, store, cache, workers, workers)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			cache := servecache.New(0, nil)
			paths := []struct {
				name string
				read func() (readResult, error)
			}{
				{"one-shot Retrieve", func() (readResult, error) {
					o := obs.New()
					rec, err := Retrieve(ctx, h, c, plan, RetrieveOptions{Workers: workers, Obs: o})
					counters := o.Metrics.Snapshot().Counters
					fetched := make([]int, len(h.Levels))
					for l := range fetched {
						fetched[l] = int(counters[fmt.Sprintf("core.session.level%d.planes_fetched", l)])
					}
					return readResult{rec, fetched, counters["core.session.bytes_fetched"]}, err
				}},
				{"fresh Session.RefineTo", func() (readResult, error) { return sessionResult(open(nil), plan.Planes) }},
				{"shared session, cold", func() (readResult, error) { return sessionResult(open(cache), plan.Planes) }},
				{"shared session, warm", func() (readResult, error) {
					s := open(cache)
					res, err := sessionResult(s, plan.Planes)
					if hits, planes := s.CacheHits(), sessionPlanes(res.fetched); hits != planes {
						t.Errorf("%s workers=%d: warm session had %d cache hits over %d planes", backend, workers, hits, planes)
					}
					return res, err
				}},
				{"shared session, snapshot-served", func() (readResult, error) {
					s, o := open(cache), obs.New()
					s.Instrument(o)
					res, err := sessionResult(s, plan.Planes)
					levels := 0
					for _, n := range plan.Planes {
						if n > 0 {
							levels++
						}
					}
					hits, built := o.Counter("core.session.snapshot_hits").Value(), o.Counter("core.session.snapshots_built").Value()
					if hits != int64(levels) || built != 0 {
						t.Errorf("%s workers=%d: %d levels decoded from snapshots and %d transposed, want all %d from snapshots", backend, workers, hits, built, levels)
					}
					return res, err
				}},
				{"session refined in three steps", func() (readResult, error) {
					s := open(nil)
					var last *grid.Tensor
					for i, rel := range rels {
						rec, _, deg, err := s.Refine(ctx, est, h.AbsTolerance(rel))
						if err != nil || deg != nil {
							return readResult{}, fmt.Errorf("step %d: degradation %v, err %v", i, deg, err)
						}
						if grid.MaxAbsDiff(rec, refs[i]) != 0 {
							t.Errorf("%s workers=%d rel %g: stepped session differs from one-shot", backend, workers, rel)
						}
						last = rec
					}
					return readResult{last, s.Fetched(), s.BytesFetched()}, nil
				}},
			}
			for _, p := range paths {
				got, err := p.read()
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", backend, workers, p.name, err)
				}
				for i, v := range got.rec.Data() {
					if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
						t.Fatalf("%s workers=%d %s: sample %d differs from the sequential one-shot", backend, workers, p.name, i)
					}
				}
				if fmt.Sprint(got.fetched) != fmt.Sprint(plan.Planes) || got.bytes != plan.Bytes {
					t.Errorf("%s workers=%d %s: fetched %v / %d bytes, plan %v / %d bytes",
						backend, workers, p.name, got.fetched, got.bytes, plan.Planes, plan.Bytes)
				}
			}
		}
	}
}

func sessionPlanes(fetched []int) int64 {
	var n int64
	for _, b := range fetched {
		n += int64(b)
	}
	return n
}

// rendezvousSource holds every read until two are in flight at once, and
// fails a read that waited a second alone — only a real fan-out gets past it.
type rendezvousSource struct {
	src      storage.SegmentSource
	inflight atomic.Int64
	met      chan struct{}
	once     atomic.Bool
}

func (r *rendezvousSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if r.inflight.Add(1) >= 2 && r.once.CompareAndSwap(false, true) {
		close(r.met)
	}
	defer r.inflight.Add(-1)
	select {
	case <-r.met:
	case <-time.After(time.Second):
		return nil, fmt.Errorf("rendezvous: level %d plane %d read alone for 1s: %w", level, plane, storage.ErrTransient)
	}
	return r.src.Segment(ctx, level, plane)
}

// TestFetchFanOutIsConcurrent: Workers > 1 really overlaps plane reads, and
// one worker really is the sequential loop.
func TestFetchFanOutIsConcurrent(t *testing.T) {
	h, c := sharedFixture(t)
	planes := make([]int, len(h.Levels))
	for l := range planes {
		planes[l] = 4
	}
	for _, workers := range []int{4, 1} {
		src := &rendezvousSource{src: c, met: make(chan struct{})}
		_, _, err := RetrievePlanes(context.Background(), h, src, planes, RetrieveOptions{Workers: workers})
		if workers > 1 && err != nil {
			t.Fatalf("workers=%d: %v (plane reads did not overlap)", workers, err)
		}
		if workers == 1 && err == nil {
			t.Fatal("workers=1 completed against a source that needs two reads in flight")
		}
	}
}

// TestFetchFanOutFailureKeepsPrefix pins the fan-out's determinism
// contract: whatever the scheduling, a failure at plane k leaves exactly
// the k planes below it, returns plane k's error, and a later RefineTo pays
// only for planes ≥ k.
func TestFetchFanOutFailureKeepsPrefix(t *testing.T) {
	h, c := sharedFixture(t)
	const level, k, want = 1, 5, 12
	target := make([]int, len(h.Levels))
	for l := range target {
		target[l] = want
	}
	for run := 0; run < 20; run++ {
		reads := &countingSource{src: c}
		src := &gatedSource{src: reads, broken: map[[2]int]bool{{level, k}: true}}
		store, err := NewPlaneStore(h, src)
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSession(h, store, nil, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RefineTo(context.Background(), target); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("level %d plane %d unavailable", level, k)) {
			t.Fatalf("run %d: err = %v, want plane (%d,%d)'s", run, err, level, k)
		}
		fetched := s.Fetched()
		if fetched[0] != want || fetched[level] != k || fetched[level+1] != 0 {
			t.Fatalf("run %d: fetched %v after a failure at (%d,%d), want [%d %d 0 ...]", run, fetched, level, k, want, k)
		}
		delete(src.broken, [2]int{level, k})
		reads.reads.Store(0)
		rec, err := s.RefineTo(context.Background(), target)
		if err != nil {
			t.Fatalf("run %d: resumed refine: %v", run, err)
		}
		if got, remaining := reads.reads.Load(), int64(want-k+want*(len(target)-level-1)); got != remaining {
			t.Fatalf("run %d: resume issued %d reads, want %d (planes ≥ %d of level %d and the levels above)", run, got, remaining, k, level)
		}
		if run == 0 {
			plan, err := retrieval.PlanForPlanes(h.LevelInfos(), target)
			if err != nil {
				t.Fatal(err)
			}
			if grid.MaxAbsDiff(rec, mustRetrieve(t, h, c, plan)) != 0 {
				t.Fatal("resumed reconstruction differs from an undisturbed one-shot")
			}
		}
	}
}

// TestFetchFanOutCancelLeavesNoGoroutine: a cancelled fan-out returns ctx's
// error only after every worker it started has exited.
func TestFetchFanOutCancelLeavesNoGoroutine(t *testing.T) {
	h, c := sessionField(t)
	baseline := leakcheck.Baseline()
	src := &blockingSource{inner: c, gate: make(chan struct{}), after: 2, started: make(chan struct{})}
	planes := make([]int, len(h.Levels))
	for l := range planes {
		planes[l] = h.Planes
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := RetrievePlanes(ctx, h, src, planes, RetrieveOptions{Workers: 4})
		done <- err
	}()
	<-src.started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fan-out err = %v, want Canceled", err)
	}
	leakcheck.Check(t, baseline, 0)
}
