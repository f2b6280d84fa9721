// Package promise is the system's one promise as one table: a
// reconstruction within the requested tolerance (the error control of the
// paper's §III, Eq. 6–7), or an explicit degradation report. Each row of
// the matrix — bound × backend × field × layout × path × fault × tolerance
// — reads a 17³ WarpX field, compressed once per backend, and asserts
// against the original field:
//
//   - a reachable row's achieved L∞ is ≤ the tolerance;
//   - a degraded row's achieved L∞ is ≤ the bound it reports (the
//     Degradation's AchievedBound), and a data fault inside the plan
//     degrades a session to the planes below it; a one-shot read, which
//     never degrades, refuses with a permanent error instead;
//   - a below-floor row says unreachable, has fetched every plane, and its
//     achieved L∞ is ≤ the bound it reports;
//   - every fault-free path of one (backend, field, rel, bound) answers what
//     the reference one-shot read answers: the same planes, bytes fetched,
//     estimated error and checksum; a walker row, which plans with MGARD's
//     greedy, answers what a one-shot read of the greedy's plan answers.
//     Tiled rows plan each tile on its own and stand apart; a served
//     data-fault row answers what a session over the same damaged artifact
//     answers.
//
// Tests run a slice of the matrix through a Selector; each row belongs to
// exactly one, Rest holding those no named selector keeps:
//
//	func TestRolesAnswerAlike(t *testing.T) { promise.Run(t, promise.Roles) }
//
// A new bound is one more entry in bounds and one more case in bound.
package promise

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/faults"
	"pmgard/internal/fieldio"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/retrieval"
	"pmgard/internal/serve"
	"pmgard/internal/servecache"
	"pmgard/internal/shard"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// The matrix's axes; belowFloor is under every field's quantization floor.
const (
	theory, exact = "theory", "exact"

	memory, flat, tiered, tiles = "memory", "flat", "tiered", "tiled"

	oneShot, session, resumed, walker = "one-shot", "fresh session", "resumed session", "walker"
	cold, warm                        = "shared cache, cold", "shared cache, warm"
	standalone, node                  = "standalone /refine", "node /refine"
	routed, failedOver                = "router /refine", "failed-over router /refine"

	none, transient, lost   = "none", "transient", "lost plane"
	rot, truncated          = "one flipped payload byte", "file truncated inside the plane"
	uninflatable, unindexed = "uninflatable", "unindexed"
	misdirected             = "misdirected"

	belowFloor = 1e-13

	// breakerThreshold is a data-fault server's breaker threshold; each of
	// its rows asks /refine once more than that.
	breakerThreshold = 3
)

var (
	backends = codec.IDs() // every registered backend; core links them all
	fields   = []string{"Ex", "Jx", "Bx"}
	rels     = []float64{1e-2, 1e-4, 1e-6, belowFloor}
	bounds   = []string{theory, exact}
	workers  = map[string]int{oneShot: 1, "one-shot, 2 workers": 2, "one-shot, 4 workers": 4}
	// wirings are the plane sources a shared session of its own reads,
	// each by runs and by runs of one.
	wirings    = []string{"local store", "router over 2 nodes", "router over 3 nodes at replication 2"}
	faulted    = []string{transient, lost, rot, truncated, uninflatable, unindexed, misdirected}
	fileFaults = []string{rot, truncated, uninflatable, unindexed} // damage on disk, so served rows take them
	served     = []string{standalone, node, routed, failedOver}
)

// row is one cell of the matrix.
type row struct {
	backend, field, bound string
	rel                   float64
	layout, path, fault   string
}

// matrix enumerates every row. Served and tiled paths plan with the
// header's exact bound (core.Header.Bound) only; faults hit the flat and
// tiered layouts.
func matrix() []row {
	var rows []row
	for _, backend := range backends {
		for _, field := range fields {
			for _, rel := range rels {
				for _, bound := range bounds {
					add := func(layout, path, fault string) {
						rows = append(rows, row{backend, field, bound, rel, layout, path, fault})
					}
					for _, p := range []string{oneShot, "one-shot, 2 workers", "one-shot, 4 workers", session, resumed, walker, cold, warm} {
						add(memory, p, none)
					}
					for _, w := range wirings {
						for _, f := range []string{none, lost} {
							add(memory, w+", by runs", f)
							add(memory, w+", runs of one", f)
						}
					}
					for _, layout := range []string{flat, tiered} {
						add(layout, oneShot, none)
						add(layout, walker, none)
						for _, f := range faulted {
							add(layout, session, f)
							add(layout, oneShot, f)
							if bound == exact && slices.Contains(fileFaults, f) {
								add(layout, standalone, f)
							}
						}
					}
					if bound == exact {
						add(tiles, tiles, none)
						for _, p := range served {
							add(flat, p, none)
						}
						add(flat, routed, transient)
					}
				}
			}
		}
	}
	return rows
}

// A Selector is one suite's slice of the matrix: the rows it keeps and
// the subtest each runs under ("" runs it in the caller's test).
type Selector struct {
	keep  func(row) bool
	group func(row) string
}

func isServed(r row) bool { return slices.Contains(served, r.path) }
func wiring(r row) string { w, _, _ := strings.Cut(r.path, ","); return w }
func isWiring(r row) bool { return slices.Contains(wirings, wiring(r)) }

var (
	// Reference keeps the reference reads: one-shot, sequential, from
	// memory, fault-free.
	Reference = Selector{keep: func(r row) bool { return r.layout == memory && r.path == oneShot }}
	// ReadPaths keeps the other library reads of an in-memory artifact:
	// one-shot at 2 and 4 workers, a fresh session, one resumed through the
	// looser tolerances, and a shared cache cold and warm.
	ReadPaths = Selector{keep: func(r row) bool {
		return r.layout == memory && r.path != oneShot && !isWiring(r) && r.path != walker
	}}
	// Transient keeps the library reads of flat and tiered artifacts whose
	// reads fail half the time behind a retry layer.
	Transient = Selector{keep: func(r row) bool { return r.fault == transient && !isServed(r) }}
	// Lost keeps the library reads of flat and tiered artifacts that lost
	// a plane for good.
	Lost = Selector{keep: func(r row) bool { return r.fault == lost && !isWiring(r) }}
	// RottedMedia keeps the library reads of flat and tiered artifacts
	// with a flipped payload byte or a file cut short inside a plane.
	RottedMedia = Selector{
		keep:  func(r row) bool { return (r.fault == rot || r.fault == truncated) && !isServed(r) },
		group: func(r row) string { return r.layout + "/" + r.fault },
	}
	// Misdirected keeps the library reads of a store that answers one plane
	// with the next plane's intact segment.
	Misdirected = Selector{keep: func(r row) bool { return r.fault == misdirected }}
	// Walks keeps the measured walks.
	Walks = Selector{
		keep:  func(r row) bool { return r.path == walker },
		group: func(r row) string { return r.backend + "/" + strings.Replace(r.layout, flat, "pmgd", 1) },
	}
	// RunProtocol keeps the shared sessions over the local store and the
	// routers, by runs and by runs of one.
	RunProtocol = Selector{keep: func(r row) bool { return isWiring(r) && r.fault == none }, group: wiring}
	// LostMidRun keeps the same sessions with a plane lost on every node.
	LostMidRun = Selector{keep: func(r row) bool { return isWiring(r) && r.fault == lost }, group: wiring}
	// Roles keeps /refine on a standalone server, a node and a router over
	// two nodes: with every node up, with one closed, and with nodes that
	// fail each request's first attempt.
	Roles = Selector{keep: func(r row) bool { return isServed(r) && (r.fault == none || r.fault == transient) }}
	// BitRot keeps /refine over a flipped payload byte or a file cut short.
	BitRot = Selector{keep: func(r row) bool { return isServed(r) && (r.fault == rot || r.fault == truncated) }}
	// Uninflatable keeps /refine over a plane whose bytes will not inflate.
	Uninflatable = Selector{keep: func(r row) bool { return isServed(r) && r.fault == uninflatable }}
	// Unindexed keeps /refine over an artifact whose index lost a plane.
	Unindexed = Selector{keep: func(r row) bool { return isServed(r) && r.fault == unindexed }}
	// FlatReads keeps the fault-free one-shot reads of a flat artifact;
	// the store must read what they fetched.
	FlatReads = Selector{keep: func(r row) bool { return r.path == oneShot && r.layout == flat && r.fault == none }}
	// TieredReads keeps the same reads of a tiered artifact.
	TieredReads = Selector{keep: func(r row) bool { return r.path == oneShot && r.layout == tiered && r.fault == none }}
	// Rest keeps the rows no other selector keeps: tiled artifacts, and the
	// uninflatable and unindexed library rows.
	Rest = Selector{keep: func(r row) bool {
		return !slices.ContainsFunc(named, func(s Selector) bool { return s.keep(r) })
	}}
	named = []Selector{Reference, ReadPaths, FlatReads, TieredReads, Transient, Lost, RottedMedia, Misdirected, Walks, RunProtocol, LostMidRun, Roles, BitRot, Uninflatable, Unindexed}
)

// Run reads every row s keeps and asserts the promise on it. It fails on a
// row two named selectors keep: each row runs in one test.
func Run(t *testing.T, s Selector) {
	t.Helper()
	e := &env{top: t, dir: t.TempDir(), memo: map[string]any{}}
	var order []string
	groups := map[string][]row{}
	for _, r := range matrix() {
		owners := 0
		for _, n := range named {
			if n.keep(r) {
				owners++
			}
		}
		if owners > 1 {
			t.Fatalf("promise: %d selectors keep %v", owners, r)
		}
		if !s.keep(r) {
			continue
		}
		g := ""
		if s.group != nil {
			g = s.group(r)
		}
		if groups[g] == nil {
			order = append(order, g)
		}
		groups[g] = append(groups[g], r)
	}
	if len(order) == 0 {
		t.Fatal("promise: the selector keeps no row")
	}
	for _, g := range order {
		rows := func(t *testing.T) {
			for _, r := range groups[g] {
				e.check(t, r, e.read(t, r))
			}
		}
		if g == "" {
			rows(t)
		} else {
			t.Run(g, rows)
		}
	}
}

// reading is what one path answers for one row. est is the bound at the
// planes decoded: the plan's estimate, a degraded read's AchievedBound.
type reading struct {
	planes   []int
	bytes    int64
	est      float64
	checksum string  // serve's /refine checksum; "" where a path keeps no tensor
	achieved float64 // L∞ on the original; -1 where a path answers a checksum only
	degraded bool
	deg      *core.Degradation // a session's report; /refine only says degraded
	unreach  bool
	err      error
}

// check asserts the promise on what r's path answered.
func (e *env) check(t *testing.T, r row, got reading) {
	t.Helper()
	fx := e.fixture(t, r.backend, r.field)
	tol := fx.h.AbsTolerance(r.rel)
	if got.err != nil {
		if r.path != oneShot || r.fault == none || r.fault == transient || storage.Classify(got.err) != storage.FaultPermanent {
			t.Errorf("%v: %v", r, got.err)
		}
		return
	}
	if r.fault != none && r.fault != transient {
		level, plane := e.site(t, fx)
		inPlan := e.reference(t, r).planes[level] > plane
		if inPlan && (r.path == oneShot || !got.degraded || got.planes[level] != plane) {
			t.Errorf("%v: planes %v, degraded %v with plane (%d,%d) damaged inside the plan", r, got.planes, got.degraded, level, plane)
		}
		// A report names the damaged plane alone, keeps every other level's
		// requested planes, and bounds the planes it kept with the row's
		// bound: above the tolerance when the plan needed the damaged plane.
		if d := got.deg; d != nil {
			kept := slices.Clone(d.Requested)
			kept[level] = plane
			if len(d.Dropped) != 1 || d.Dropped[0] != (storage.SegmentID{Level: level, Plane: plane}) || !slices.Equal(d.Got, kept) ||
				!slices.Equal(d.Got, got.planes) || d.AchievedBound != got.est || d.AchievedBound != bound(fx.h, r.bound).At(d.Got) ||
				d.RequestedTol != tol || inPlan && !(d.AchievedBound > tol) {
				t.Errorf("%v: degradation report %+v at planes %v, bound %g, tolerance %g", r, *d, got.planes, got.est, tol)
			}
		}
	}
	measured := got.achieved >= 0
	switch {
	case got.degraded:
		if measured && !(got.achieved <= got.est) {
			t.Errorf("%v: achieved L∞ %g above the degraded bound %g", r, got.achieved, got.est)
		}
	case got.unreach:
		if !fx.all(got.planes) || measured && !(got.achieved <= got.est) {
			t.Errorf("%v: unreachable at planes %v, achieved L∞ %g, bound %g", r, got.planes, got.achieved, got.est)
		}
	case r.rel == belowFloor:
		t.Errorf("%v: below the floor (bound %g) without saying unreachable", r, got.est)
	case measured && !(got.achieved <= tol), !(got.est <= tol):
		t.Errorf("%v: achieved L∞ %g, bound %g, tolerance %g", r, got.achieved, got.est, tol)
	}
	var want reading
	switch {
	case r.path == tiles:
		return
	case r.path == walker:
		want = e.greedyReference(t, r)
	case r.fault == none || r.fault == transient:
		want = e.reference(t, r)
	case isServed(r) || isWiring(r):
		want = e.read(t, row{r.backend, r.field, r.bound, r.rel, r.layout, session, r.fault})
	default:
		return
	}
	if !slices.Equal(got.planes, want.planes) || got.bytes != want.bytes || got.est != want.est || got.degraded != want.degraded ||
		got.checksum != "" && got.checksum != want.checksum || measured && got.achieved != want.achieved {
		t.Errorf("%v answers %+v,\nwant %+v", r, got, want)
	}
}

// reference is the reference read of r's (backend, field, bound, rel): one
// shot, sequential, from memory, fault-free.
func (e *env) reference(t *testing.T, r row) reading {
	return memoize(e, fmt.Sprint("ref", r.backend, r.field, r.bound, r.rel), func() reading {
		return e.read(t, row{r.backend, r.field, r.bound, r.rel, memory, oneShot, none})
	})
}

// greedyReference is what a walker row answers: MGARD's greedy plan
// (retrieval.Greedy) under r's bound at r's tolerance, read one shot from
// memory, since core.SweepBounds plans as the paper's offline stage did.
func (e *env) greedyReference(t *testing.T, r row) reading {
	return memoize(e, fmt.Sprint("greedy", r.backend, r.field, r.bound, r.rel), func() reading {
		fx := e.fixture(t, r.backend, r.field)
		tol := fx.h.AbsTolerance(r.rel)
		plan, err := retrieval.Greedy(fx.h.LevelInfos(), bound(fx.h, r.bound), tol)
		if err != nil {
			t.Fatal(err)
		}
		o := obs.New()
		rec, err := core.Retrieve(context.Background(), fx.h, fx.c, plan, core.RetrieveOptions{Workers: 1, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		return fx.measure(rec, plan, o.Counter("core.session.bytes_fetched").Value(), nil, tol)
	})
}

// read runs r's path.
func (e *env) read(t *testing.T, r row) reading {
	t.Helper()
	fx := e.fixture(t, r.backend, r.field)
	h, tol, ctx := fx.h, fx.h.AbsTolerance(r.rel), context.Background()
	b := bound(h, r.bound)
	steps := []float64{r.rel}
	var s *core.Session
	var err error
	var failover *obs.Counter // a router's shard.replica_failover
	var failovers int64
	switch {
	case workers[r.path] > 0:
		o, stored := obs.New(), r.layout != memory && r.fault == none
		var st *storage.Store
		var before int64
		if stored {
			st = e.store(t, fx, r.layout, none)
			before = st.BytesRead()
		}
		rec, plan, err := core.RetrieveTolerance(ctx, h, e.source(t, fx, r), b, tol, core.RetrieveOptions{Workers: workers[r.path], Obs: o})
		if err != nil {
			if rec != nil {
				t.Errorf("%v: a refused read returned a tensor", r)
			}
			return reading{err: err}
		}
		got := fx.measure(rec, plan, o.Counter("core.session.bytes_fetched").Value(), nil, tol)
		if stored && st.BytesRead()-before != got.bytes {
			t.Errorf("%v: the store read %d bytes, the read fetched %d", r, st.BytesRead()-before, got.bytes)
		}
		return got
	case r.path == walker:
		// The row's bound first, the looser ones after: a sweep walks
		// loosest first and answers in the caller's order.
		sweep := append([]float64{r.rel}, rels[:slices.Index(rels, r.rel)]...)
		points, err := core.SweepBounds(ctx, h, e.source(t, fx, r), fx.orig, b, sweep)
		if err != nil {
			return reading{err: err}
		}
		p := points[0].Plan
		return reading{planes: p.Planes, bytes: p.Bytes, est: p.EstimatedError, achieved: points[0].AchievedErr, unreach: !(p.EstimatedError <= tol)}
	case r.path == tiles:
		return e.readTiled(t, fx, r.rel)
	case isServed(r):
		return e.refine(t, fx, r)
	case r.path == session || r.path == resumed:
		if r.path == resumed {
			steps = rels[:slices.Index(rels, r.rel)+1]
		}
		s, err = core.NewSession(h, e.source(t, fx, r))
	case r.path == cold || r.path == warm:
		var store *core.PlaneStore
		store, err = core.NewPlaneStore(h, fx.c)
		cache := servecache.New(0, nil)
		if err == nil {
			s, err = core.NewSharedSession(h, store, cache)
		}
		if err == nil && r.path == warm {
			// The cold refine a warm one repeats fills the cache with the
			// planes and word snapshots the warm session reads.
			_, _, _, err = s.Refine(ctx, b, tol)
			s.Close()
			if err == nil {
				s, err = core.NewSharedSession(h, store, cache)
			}
		}
	default:
		tr := e.wiring(t, r.backend, slices.Index(wirings, wiring(r)), r.fault)
		var src servecache.Source = tr.Sources[r.field]
		if tr.Obs != nil {
			failover = tr.Obs.Counter("shard.replica_failover")
			failovers = failover.Value()
		}
		if strings.HasSuffix(r.path, "runs of one") {
			src = oneByOne{src}
		}
		s, err = core.NewSharedSession(h, src, servecache.New(0, nil))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	o := obs.New()
	s.Instrument(o)
	var got reading
	for _, rel := range steps {
		rec, plan, deg, err := s.Refine(ctx, b, h.AbsTolerance(rel))
		if err != nil {
			return reading{err: err}
		}
		got = fx.measure(rec, plan, s.BytesFetched(), deg, h.AbsTolerance(rel))
	}
	// Only a lost plane moves on to its replica, once.
	if n := map[string]int64{lost: 1}[r.fault]; failover != nil && failover.Value()-failovers != n {
		t.Errorf("%v: %d replica failovers, want %d", r, failover.Value()-failovers, n)
	}
	if r.path == warm {
		levels := int64(0)
		for _, n := range got.planes {
			levels += int64(min(n, 1))
		}
		if hits, built := o.Counter("core.session.snapshot_hits").Value(), o.Counter("core.session.snapshots_built").Value(); hits != levels || built != 0 {
			t.Errorf("%v: %d levels decoded from snapshots and %d transposed, want all %d from snapshots", r, hits, built, levels)
		}
	}
	return got
}

// bound is the named bound table over h. The exact one is built here from
// the backend's constants, not taken from h.Bound, so a served row — which
// plans with h.Bound — answers what the reference read under this table
// answers only if the two agree.
func bound(h *core.Header, name string) retrieval.Bound {
	if name == exact {
		c, err := codec.ByID(h.Codec())
		if err != nil {
			panic(err)
		}
		return retrieval.PerLevel(h.LevelInfos(), c.LevelAmplification(h.Dims, h.CodecOptions()))
	}
	return h.TheoryBound()
}

// fixture is one WarpX field, the original and its artifact under one
// backend, compressed once per run.
type fixture struct {
	orig *grid.Tensor
	c    *core.Compressed
	h    *core.Header
}

func (e *env) fixture(t *testing.T, backend, field string) *fixture {
	return memoize(e, "fixture"+backend+field, func() *fixture {
		orig, err := warpx.DefaultConfig(17, 17, 17).Field(field, 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Backend = backend
		c, err := core.Compress(orig, cfg, field, 5)
		if err != nil {
			t.Fatal(err)
		}
		return &fixture{orig, c, &c.Header}
	})
}

// measure turns a library reconstruction into a reading.
func (fx *fixture) measure(rec *grid.Tensor, plan retrieval.Plan, bytes int64, deg *core.Degradation, tol float64) reading {
	crc := crc32.NewIEEE()
	var buf [8]byte
	for _, v := range rec.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		crc.Write(buf[:])
	}
	return reading{planes: plan.Planes, bytes: bytes, est: plan.EstimatedError, checksum: fmt.Sprintf("%08x", crc.Sum32()),
		achieved: grid.MaxAbsDiff(fx.orig, rec), degraded: deg != nil, deg: deg, unreach: deg == nil && !(plan.EstimatedError <= tol)}
}

// all reports whether planes holds every plane of every level.
func (fx *fixture) all(planes []int) bool {
	return len(planes) > 0 && !slices.ContainsFunc(planes, func(n int) bool { return n != fx.h.Planes })
}

// env is one Run's state: the artifacts it wrote, its references, the
// stores it opened and the servers it stood up, each built on first use
// and released when the Run's test ends. A Run reads its rows one at a
// time.
type env struct {
	top  *testing.T
	dir  string
	memo map[string]any
}

func memoize[V any](e *env, key string, build func() V) V {
	if v, ok := e.memo[key]; ok {
		return v.(V)
	}
	v := build()
	e.memo[key] = v
	return v
}

// site is the plane every fault of fx damages: inside the plans of both
// bounds at every tolerance — so inside every row's plan — on the finest
// level that has one, nearest the middle of the plans' common run there,
// with a successor of another size, so a misdirected read cannot pass the
// manifest's length check.
func (e *env) site(t *testing.T, fx *fixture) (level, plane int) {
	s := memoize(e, "site"+fx.h.Codec()+fx.h.FieldName, func() [2]int {
		n := make([]int, len(fx.h.Levels))
		for l := range n {
			n[l] = fx.h.Planes
		}
		for _, name := range bounds {
			for _, rel := range rels {
				plan, err := retrieval.ExactPlan(fx.h.LevelInfos(), bound(fx.h, name), fx.h.AbsTolerance(rel), nil)
				if err != nil {
					t.Fatal(err)
				}
				for l, k := range plan.Planes {
					n[l] = min(n[l], k)
				}
			}
		}
		for level := len(n) - 1; level >= 0; level-- {
			sizes := fx.h.Levels[level].PlaneSizes
			for i := range n[level] {
				if k := (n[level]/2 + i) % n[level]; k+1 < len(sizes) && sizes[k] != sizes[k+1] {
					return [2]int{level, k}
				}
			}
		}
		t.Fatalf("%s %s: no plane to damage inside the plans %v", fx.h.Codec(), fx.h.FieldName, n)
		return [2]int{}
	})
	return s[0], s[1]
}

// source is r's layout under r's fault. A faulted source sits behind a
// retry layer, as a served field's does; a transient row whose reads met no
// injected fault tested nothing, and fails when t ends.
func (e *env) source(t *testing.T, fx *fixture, r row) storage.SegmentSource {
	var src storage.SegmentSource = fx.c
	if r.layout != memory {
		src = e.store(t, fx, r.layout, r.fault)
	}
	level, plane := e.site(t, fx)
	switch r.fault {
	case none:
		return src
	case transient:
		inj := faults.WrapSource(src, faults.Config{Seed: 7, TransientRate: 0.5}, nil)
		t.Cleanup(func() {
			if inj.Stats().Transient == 0 {
				t.Errorf("%v: no transient fault injected", r)
			}
		})
		src = inj
	case lost:
		src = lose(src, level, plane)
	case misdirected:
		src = misdirect{src, level, plane}
	}
	return storage.NewRetryingSource(src, storage.RetryPolicy{MaxAttempts: 32, Sleep: func(time.Duration) {}}, nil)
}

// store opens fx's artifact in layout under fault, once per run.
func (e *env) store(t *testing.T, fx *fixture, layout, fault string) *storage.Store {
	return memoize(e, "store"+fx.h.Codec()+fx.h.FieldName+layout+fault, func() *storage.Store {
		path, cut := e.artifact(t, fx, layout, fault, "store")
		_, st, err := core.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		e.top.Cleanup(func() { st.Close() })
		cut()
		return st
	})
}

// lose loses plane (level, plane) of src for good.
func lose(src storage.SegmentSource, level, plane int) storage.SegmentSource {
	return faults.WrapSource(src, faults.Config{Permanent: []faults.PlaneID{{Level: level, Plane: plane}}}, nil)
}

// misdirect answers plane (level, plane) with the next plane's segment: a
// store whose index is off by one, every payload intact.
type misdirect struct {
	src          storage.SegmentSource
	level, plane int
}

// Segment implements storage.SegmentSource.
func (m misdirect) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if level == m.level && plane == m.plane {
		plane++
	}
	return m.src.Segment(ctx, level, plane)
}

// artifact writes fx in layout with fault's damage at the site, once per
// run, layout, fault and owner: every opener of a damaged artifact gets its
// own. The returned cut shortens the file, which an opener does once it
// holds the store — a store refuses to open an index pointing past the end.
func (e *env) artifact(t *testing.T, fx *fixture, layout, fault, owner string) (string, func()) {
	type written struct {
		path string
		cut  func()
	}
	w := memoize(e, "artifact"+fx.h.Codec()+fx.h.FieldName+layout+fault+owner, func() written {
		path := filepath.Join(e.dir, strings.ReplaceAll(strings.Join([]string{fx.h.Codec(), fx.h.FieldName, layout, fault, owner}, "-"), " ", "_"))
		level, plane := e.site(t, fx)
		var offset int64 // of the site's payload in file
		for _, sz := range fx.h.Levels[level].PlaneSizes[:plane] {
			offset += sz
		}
		file := path
		hier, err := storage.DefaultHierarchy(len(fx.h.Levels))
		if err == nil && layout == flat {
			err = fx.c.WriteFile(path)
		} else if err == nil {
			err = fx.c.WriteTiered(path, hier)
			file = filepath.Join(path, hier.Tiers[hier.Placement[level]].Name, fmt.Sprintf("level_%d.seg", level))
		}
		var fi os.FileInfo
		if err == nil {
			fi, err = os.Stat(file)
		}
		if err != nil {
			t.Fatal(err)
		}
		if layout == flat {
			// The data section ends the file, in (level, plane) order.
			offset += fi.Size() - fx.h.TotalBytes()
			for _, lm := range fx.h.Levels[:level] {
				for _, sz := range lm.PlaneSizes {
					offset += sz
				}
			}
		}
		cut := func() {}
		switch {
		case fault == rot:
			edit(t, file, func(b []byte) []byte { b[offset] ^= 0x01; return b })
		case fault == truncated:
			cut = func() {
				if err := os.Truncate(file, offset+1); err != nil {
					t.Fatal(err)
				}
			}
		case fault == uninflatable:
			// BFINAL with the reserved block type 11: no stream inflates it.
			// A version-1 manifest has no checksums, so on the tiered layout
			// only the inflater can tell.
			edit(t, file, func(b []byte) []byte { b[offset] = 0x07; return b })
			if layout == tiered {
				editManifest(t, path, func(man map[string]json.RawMessage) {
					man["version"] = json.RawMessage("1")
					delete(man, "checksums")
				})
			}
		case fault == unindexed && layout == flat:
			// magic, version, metaLen, meta, segCount, then 28-byte entries
			// {level u32, plane u32, …}: renumber the site's.
			edit(t, file, func(b []byte) []byte {
				for i := 16 + int(binary.LittleEndian.Uint32(b[8:12])); i+28 <= len(b); i += 28 {
					if binary.LittleEndian.Uint32(b[i:]) == uint32(level) && binary.LittleEndian.Uint32(b[i+4:]) == uint32(plane) {
						b[i+4] ^= 0x40
						break
					}
				}
				return b
			})
		case fault == unindexed:
			editManifest(t, path, func(man map[string]json.RawMessage) {
				for _, key := range []string{"levels", "checksums"} {
					var perLevel [][]int64
					if err := json.Unmarshal(man[key], &perLevel); err != nil {
						t.Fatal(err)
					}
					perLevel[level] = perLevel[level][:plane]
					man[key], _ = json.Marshal(perLevel)
				}
			})
		}
		return written{path, cut}
	})
	return w.path, w.cut
}

// edit rewrites path's bytes.
func edit(t *testing.T, path string, fn func([]byte) []byte) {
	b, err := os.ReadFile(path)
	if err == nil {
		err = os.WriteFile(path, fn(b), 0o644)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// editManifest rewrites a tiered directory's manifest.json.
func editManifest(t *testing.T, dir string, fn func(map[string]json.RawMessage)) {
	edit(t, filepath.Join(dir, "manifest.json"), func(b []byte) []byte {
		var man map[string]json.RawMessage
		if err := json.Unmarshal(b, &man); err != nil {
			t.Fatal(err)
		}
		fn(man)
		b, _ = json.Marshal(man)
		return b
	})
}

// readTiled compresses fx in slabs through CompressTiled — once per run —
// and streams it back through RetrieveTiledRel. The error is the whole
// field's, the tolerance the manifest's global one; the planes are the
// fewest any tile whose bound misses it fetched.
func (e *env) readTiled(t *testing.T, fx *fixture, rel float64) reading {
	raw := filepath.Join(e.dir, fx.h.Codec()+fx.h.FieldName+".field")
	dir := memoize(e, raw, func() string {
		cfg := core.DefaultConfig()
		cfg.Backend = fx.h.Codec()
		err := fieldio.Write(raw, fieldio.Meta{Field: fx.h.FieldName, Timestep: fx.h.Timestep, Dims: fx.h.Dims}, fx.orig)
		var r *fieldio.Reader
		if err == nil {
			r, err = fieldio.OpenReader(raw)
		}
		if err == nil {
			_, err = core.CompressTiled(r, cfg, raw+".tiles", core.TileOptions{SlabThickness: 9})
			r.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return raw + ".tiles"
	})
	out := raw + ".out"
	defer os.Remove(out)
	ts, stats, err := core.RetrieveTiledRel(dir, rel, out, 1)
	if err != nil {
		return reading{err: err}
	}
	_, rec, err := fieldio.Read(out)
	if err != nil {
		t.Fatal(err)
	}
	got := reading{bytes: stats.BytesFetched, achieved: grid.MaxAbsDiff(fx.orig, rec)}
	for _, p := range stats.Planes {
		if got.est = max(got.est, p.EstimatedError); !(p.EstimatedError <= rel*ts.ValueRange) {
			got.unreach = true
			if got.planes == nil {
				got.planes = p.Planes
			}
			for l, n := range p.Planes {
				got.planes[l] = min(got.planes[l], n)
			}
		}
	}
	return got
}

// oneByOne forces the one-plane protocol: every plane of a run is its own
// fetch, in order, stopping at the first that fails.
type oneByOne struct{ src servecache.Source }

// FetchPlanes implements servecache.Source.
func (o oneByOne) FetchPlanes(ctx context.Context, run servecache.Run) []servecache.Plane {
	out := make([]servecache.Plane, 0, len(run.Planes))
	for _, k := range run.Planes {
		one := run
		one.Planes = []int{k}
		if out = append(out, o.src.FetchPlanes(ctx, one)[0]); out[len(out)-1].Err != nil {
			break
		}
	}
	return out
}

// nodeFields is a node's set of fields.
type nodeFields map[string]shard.NodeField

// PlaneField implements shard.NodeSource.
func (n nodeFields) PlaneField(name string) (shard.NodeField, bool) { f, ok := n[name]; return f, ok }

// PlaneFields implements shard.NodeSource.
func (n nodeFields) PlaneFields() []string {
	var names []string
	for name := range n {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// failing asks fail before each read of src.
type failing struct {
	src  storage.SegmentSource
	fail func(level, plane int) error
}

// Segment implements storage.SegmentSource.
func (f failing) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if err := f.fail(level, plane); err != nil {
		return nil, err
	}
	return f.src.Segment(ctx, level, plane)
}

// PlaneRequest is one GET /planes a Tier's node received.
type PlaneRequest struct {
	Node, Level int
	Field       string
	Planes      []int
}

// A Tier is a stood-up plane-serving wiring: a plane source per field and,
// over nodes, the shard map, the router's registry and the plane requests
// the nodes received.
type Tier struct {
	Sources map[string]servecache.Source
	Map     *shard.Map
	Obs     *obs.Obs

	mu       sync.Mutex
	requests []PlaneRequest
}

// Requests returns the plane requests the nodes received so far.
func (tr *Tier) Requests() []PlaneRequest {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return slices.Clone(tr.requests)
}

// StandUp serves fields' planes from the local stores or, with nodes > 0,
// through a router over that many /planes nodes at replication, each
// serving every field from a cache of its own. fail, when set, is asked
// before every store read — node 0 on the local stores — and fails the read
// with what it returns. The nodes close when t ends.
func StandUp(t testing.TB, fields map[string]*core.Compressed, nodes, replication int, fail func(node int, field string, level, plane int) error) *Tier {
	t.Helper()
	tr := &Tier{Sources: map[string]servecache.Source{}}
	store := func(node int, name string) servecache.Source {
		var src storage.SegmentSource = fields[name]
		if fail != nil {
			src = failing{src, func(level, plane int) error { return fail(node, name, level, plane) }}
		}
		st, err := core.NewPlaneStore(&fields[name].Header, src)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if nodes == 0 {
		for name := range fields {
			tr.Sources[name] = store(0, name)
		}
		return tr
	}
	var urls []string
	for i := range nodes {
		nf := nodeFields{}
		cache := servecache.New(0, nil)
		for name, c := range fields {
			nf[name] = shard.CachedField(&c.Header, cache, store(i, name))
		}
		nh := shard.NewNodeHandler(nf, obs.New())
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/planes" {
				q := req.URL.Query()
				pr := PlaneRequest{Node: i, Field: q.Get("field")}
				pr.Level, _ = strconv.Atoi(q.Get("level"))
				for _, part := range strings.Split(q.Get("plane"), ",") {
					k, _ := strconv.Atoi(part)
					pr.Planes = append(pr.Planes, k)
				}
				tr.mu.Lock()
				tr.requests = append(tr.requests, pr)
				tr.mu.Unlock()
			}
			nh.ServeHTTP(w, req)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	tr.Map, tr.Obs = shardMap(t, urls, replication), obs.New()
	r, err := shard.NewRouter(shard.RouterConfig{Map: tr.Map, Obs: tr.Obs})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range fields {
		tr.Sources[name] = r.FieldClient(&c.Header)
	}
	return tr
}

// wiring stands up wirings[w] over a backend's fields. Under a lost plane,
// every store has lost it.
func (e *env) wiring(t *testing.T, backend string, w int, fault string) *Tier {
	return memoize(e, "wiring"+backend+strconv.Itoa(w)+fault, func() *Tier {
		compressed, sites := map[string]*core.Compressed{}, map[string][2]int{}
		for _, name := range fields {
			fx := e.fixture(t, backend, name)
			level, plane := e.site(t, fx)
			compressed[name], sites[name] = fx.c, [2]int{level, plane}
		}
		var fail func(int, string, int, int) error
		if fault == lost {
			fail = func(_ int, field string, level, plane int) error {
				if sites[field] == [2]int{level, plane} {
					return fmt.Errorf("promise: plane (%d,%d) lost: %w", level, plane, storage.ErrPermanent)
				}
				return nil
			}
		}
		return StandUp(e.top, compressed, []int{0, 2, 3}[w], 2, fail)
	})
}

// shardMap places planes on the nodes at urls.
func shardMap(t testing.TB, urls []string, replication int) *shard.Map {
	var nodes []string
	for i, u := range urls {
		nodes = append(nodes, fmt.Sprintf(`{"name": "n%d", "url": %q}`, i, u))
	}
	m, err := shard.ParseMap([]byte(fmt.Sprintf(`{"nodes": [%s], "replication": %d}`, strings.Join(nodes, ","), replication)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// server is one serving wiring, built only with the exported constructors
// cmd/serve uses and fronted by httptest.
type server struct {
	*httptest.Server
	o *obs.Obs
}

// serveOver starts a server under cfg whose fields build adds; wrap, when
// set, stands between the server and its clients.
func (e *env) serveOver(t *testing.T, cfg serve.Config, build func(*serve.Server) error, wrap func(http.Handler) http.Handler) server {
	cfg.Obs, cfg.RequestTimeout = obs.New(), 30*time.Second
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.top.Cleanup(srv.Close)
	if err := build(srv); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	e.top.Cleanup(ts.Close)
	return server{ts, cfg.Obs}
}

// server returns the wiring r's served path reads: a standalone server or
// a node over the fields' flat artifacts, or a router over two nodes — its
// cache 1 byte, so every refine crosses the network — with one node
// closed, or with nodes that fail each plane request's first attempt. A
// data-fault row's standalone server holds the damaged artifact alone,
// behind retries and a breaker, which must stay closed: a data fault is not
// a tier being down.
func (e *env) server(t *testing.T, r row) server {
	key := r.backend + r.path + r.fault
	if slices.Contains(fileFaults, r.fault) {
		key += r.field + r.layout
	}
	return memoize(e, "server"+key, func() server {
		add := func(mount bool, layout, fault string, names ...string) func(*serve.Server) error {
			return func(s *serve.Server) error {
				if mount {
					s.MountPlanes()
				}
				for _, name := range names {
					path, cut := e.artifact(t, e.fixture(t, r.backend, name), layout, fault, "server")
					if err := s.AddStore(path); err != nil {
						return err
					}
					cut()
				}
				return nil
			}
		}
		switch {
		case slices.Contains(fileFaults, r.fault):
			cfg := serve.Config{CacheBytes: 64 << 20, Retries: 4, Breaker: resilience.BreakerConfig{FailureThreshold: breakerThreshold}}
			return e.serveOver(t, cfg, add(false, r.layout, r.fault, r.field), nil)
		case r.path == standalone || r.path == node:
			return e.serveOver(t, serve.Config{CacheBytes: 64 << 20}, add(r.path == node, flat, none, fields...), nil)
		}
		var flaky func(http.Handler) http.Handler
		if r.fault == transient {
			flaky = func(next http.Handler) http.Handler {
				var seen sync.Map
				return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
					if _, again := seen.LoadOrStore(req.URL.RawQuery, true); !again && req.URL.Path == "/planes" {
						http.Error(w, "injected transient fault", http.StatusServiceUnavailable)
						return
					}
					next.ServeHTTP(w, req)
				})
			}
		}
		n0 := e.serveOver(t, serve.Config{CacheBytes: 64 << 20}, add(true, flat, none, fields...), flaky)
		n1 := e.serveOver(t, serve.Config{CacheBytes: 64 << 20}, add(true, flat, none, fields...), flaky)
		m := shardMap(t, []string{n0.URL, n1.URL}, 2)
		router := e.serveOver(t, serve.Config{CacheBytes: 1}, func(s *serve.Server) error { return s.AddShard(context.Background(), m) }, nil)
		if r.path == failedOver {
			n0.Close()
		}
		return router
	})
}

// refine asks r's server for /refine at r's tolerance. A data-fault row
// asks once more than the breaker's threshold — every healthy plane cached
// after the first, so the damaged one is each later refine's only read — and
// each answer must be the first's.
func (e *env) refine(t *testing.T, fx *fixture, r row) reading {
	s := e.server(t, r)
	var got reading
	for i := range map[bool]int{true: breakerThreshold + 1, false: 1}[slices.Contains(fileFaults, r.fault)] {
		resp, err := http.Get(s.URL + "/refine?field=" + r.field + "&rel=" + strconv.FormatFloat(r.rel, 'g', -1, 64))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Planes         []int
			BytesFetched   int64   `json:"bytes_fetched"`
			EstimatedError float64 `json:"estimated_error"`
			Degraded       bool
			Unreachable    bool
			Checksum       string
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return reading{err: fmt.Errorf("/refine %d: status %d", i, resp.StatusCode)}
		}
		if err != nil {
			t.Fatal(err)
		}
		again := reading{planes: body.Planes, bytes: body.BytesFetched, est: body.EstimatedError, checksum: body.Checksum,
			achieved: -1, degraded: body.Degraded, unreach: body.Unreachable}
		if i > 0 && fmt.Sprint(again) != fmt.Sprint(got) {
			t.Errorf("%v: /refine %d answers %+v, the first %+v", r, i, again, got)
		}
		got = again
	}
	snap := s.o.Metrics.Snapshot()
	if state, retries := snap.Gauges["storage.breaker_state."+r.field], snap.Counters["storage.retry.retries"]; state != 0 || (retries > 0) != (r.fault == transient || r.path == failedOver) {
		t.Errorf("%v: breaker state %v after %d retries, want it closed, with retries only where a node fails", r, state, retries)
	}
	// The retry layer quarantines a damaged plane when the store itself
	// detects the damage: everywhere but in an unchecksummed tiered plane,
	// which only the inflater above it can tell.
	if q := snap.Counters["storage.retry.quarantined"]; slices.Contains(fileFaults, r.fault) && (q == 0) != (r.layout == tiered && r.fault == uninflatable) {
		t.Errorf("%v: %d planes quarantined", r, q)
	}
	return got
}
