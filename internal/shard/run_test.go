package shard

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/servecache"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// The run-protocol suite: one table of wirings — a local store, a router
// over two nodes, a router over three nodes at replication 2 — read by
// sessions that ask for each level's missing planes as one run, against the
// same wirings forced back to the one-plane protocol.

// fixture is one 33³ field, refactored, with the original kept for L∞.
type fixture struct {
	orig *grid.Tensor
	c    *core.Compressed
}

var (
	fixturesOnce sync.Once
	fixtures33   map[string]fixture
	fixturesErr  error
)

// fixtures returns the suite's 33³ WarpX fields, compressed once.
func fixtures(t *testing.T) map[string]fixture {
	t.Helper()
	fixturesOnce.Do(func() {
		fixtures33 = map[string]fixture{}
		for _, name := range []string{"Jx", "Ex"} {
			field, err := warpx.DefaultConfig(33, 33, 33).Field(name, 5)
			if err == nil {
				var c *core.Compressed
				if c, err = core.Compress(field, core.DefaultConfig(), name, 0); err == nil {
					fixtures33[name] = fixture{orig: field, c: c}
					continue
				}
			}
			fixturesErr = err
		}
	})
	if fixturesErr != nil {
		t.Fatal(fixturesErr)
	}
	return fixtures33
}

// oneByOne forces the one-plane protocol: every plane of a run is its own
// fetch, in order, stopping at the first that fails — what a session did
// before runs.
type oneByOne struct{ src servecache.Source }

func (o oneByOne) FetchPlanes(ctx context.Context, run servecache.Run) []servecache.Plane {
	out := make([]servecache.Plane, 0, len(run.Planes))
	for _, k := range run.Planes {
		one := run
		one.Planes = []int{k}
		out = append(out, o.src.FetchPlanes(ctx, one)[0])
		if out[len(out)-1].Err != nil {
			break
		}
	}
	return out
}

// faultySource fails the planes fail names and reads the rest from src,
// plane by plane, stopping after a failed one like any such source.
type faultySource struct {
	src  servecache.Source
	fail func(level, plane int) error
}

func (f faultySource) FetchPlanes(ctx context.Context, run servecache.Run) []servecache.Plane {
	out := make([]servecache.Plane, 0, len(run.Planes))
	for _, k := range run.Planes {
		if err := f.fail(run.Level, k); err != nil {
			return append(out, servecache.Plane{Err: err})
		}
		one := run
		one.Planes = []int{k}
		out = append(out, f.src.FetchPlanes(ctx, one)[0])
	}
	return out
}

// planeRequest is one GET /planes a node received.
type planeRequest struct {
	node   int
	field  string
	level  int
	planes []int
}

// wiring is one row of the suite's table: nodes == 0 reads the local stores,
// otherwise a router over that many nodes.
type wiring struct {
	name               string
	nodes, replication int
}

var wirings = []wiring{
	{"local store", 0, 0},
	{"router over 2 nodes", 2, 2},
	{"router over 3 nodes at replication 2", 3, 2},
}

// tier is one wiring stood up over the fixtures: a plane source per field,
// the router's registry, and every plane request its nodes received.
type tier struct {
	sources map[string]servecache.Source
	o       *obs.Obs

	mu       sync.Mutex
	requests []planeRequest
}

// fieldsSource serves a fixed set of NodeFields.
type fieldsSource map[string]NodeField

func (s fieldsSource) PlaneField(name string) (NodeField, bool) { f, ok := s[name]; return f, ok }
func (s fieldsSource) PlaneFields() []string {
	var names []string
	for name := range s {
		names = append(names, name)
	}
	return names
}

// standUp builds w over the fixtures. fail, when non-nil, injects plane
// faults below every cache: fail(node, field, level, plane) is asked before
// each store read, node being 0 on the local wiring.
func standUp(t *testing.T, w wiring, fail func(node int, field string, level, plane int) error) *tier {
	t.Helper()
	tr := &tier{sources: map[string]servecache.Source{}, o: obs.New()}
	planeSource := func(node int, name string, fx fixture) servecache.Source {
		store, err := core.NewPlaneStore(&fx.c.Header, fx.c)
		if err != nil {
			t.Fatal(err)
		}
		if fail == nil {
			return store
		}
		return faultySource{src: store, fail: func(level, plane int) error { return fail(node, name, level, plane) }}
	}
	if w.nodes == 0 {
		for name, fx := range fixtures(t) {
			tr.sources[name] = planeSource(0, name, fx)
		}
		return tr
	}
	mapJSON := `{"nodes": [`
	for i := 0; i < w.nodes; i++ {
		fields := fieldsSource{}
		cache := servecache.New(0, nil)
		for name, fx := range fixtures(t) {
			fields[name] = CachedField(&fx.c.Header, cache, planeSource(i, name, fx))
		}
		nh := NewNodeHandler(fields, obs.New())
		node := i
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/planes" {
				q := r.URL.Query()
				req := planeRequest{node: node, field: q.Get("field")}
				req.level, _ = strconv.Atoi(q.Get("level"))
				for _, part := range strings.Split(q.Get("plane"), ",") {
					k, _ := strconv.Atoi(part)
					req.planes = append(req.planes, k)
				}
				tr.mu.Lock()
				tr.requests = append(tr.requests, req)
				tr.mu.Unlock()
			}
			nh.ServeHTTP(rw, r)
		}))
		t.Cleanup(ts.Close)
		if i > 0 {
			mapJSON += ","
		}
		mapJSON += fmt.Sprintf(`{"name": "n%d", "url": %q}`, i, ts.URL)
	}
	mapJSON += fmt.Sprintf(`], "replication": %d}`, w.replication)
	m, err := ParseMap([]byte(mapJSON))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: m, Obs: tr.o})
	if err != nil {
		t.Fatal(err)
	}
	for name, fx := range fixtures(t) {
		tr.sources[name] = r.FieldClient(&fx.c.Header)
	}
	return tr
}

// seen returns the plane requests received so far.
func (tr *tier) seen() []planeRequest {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]planeRequest(nil), tr.requests...)
}

// answer is everything a refine tells its caller.
type answer struct {
	planes         []int
	bytesFetched   int64
	estimatedError float64
	checksum       uint32
	maxErr         float64
	deg            *core.Degradation
}

// refine opens a fresh shared session of fx over src — its own cache, so
// every plane is a miss — and refines it to rel.
func refine(t *testing.T, fx fixture, src servecache.Source, rel float64) answer {
	t.Helper()
	h := &fx.c.Header
	sess, err := core.NewSharedSession(h, src, servecache.New(0, nil))
	if err != nil {
		t.Fatal(err)
	}
	rec, plan, deg, err := sess.Refine(context.Background(), h.TheoryEstimator(), h.AbsTolerance(rel))
	if err != nil {
		t.Fatalf("refine %s at %g: %v", h.FieldName, rel, err)
	}
	crc := crc32.NewIEEE()
	var buf [8]byte
	for _, v := range rec.Data() {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		crc.Write(buf[:])
	}
	return answer{
		planes:         plan.Planes,
		bytesFetched:   sess.BytesFetched(),
		estimatedError: plan.EstimatedError,
		checksum:       crc.Sum32(),
		maxErr:         grid.MaxAbsDiff(fx.orig, rec),
		deg:            deg,
	}
}

// TestRunProtocolEquivalence: on every wiring, for every (field, rel), a
// session fetching each level as one run answers exactly what a session
// forced to runs of one answers — planes, bytes fetched, estimated error,
// checksum, achieved L∞ on the original — and every wiring answers what the
// local store does.
func TestRunProtocolEquivalence(t *testing.T) {
	local := map[string]answer{}
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			byRun, byOne := standUp(t, w, nil), standUp(t, w, nil)
			for name, fx := range fixtures(t) {
				for _, rel := range []float64{1e-2, 1e-4, 1e-6} {
					id := fmt.Sprintf("%s@%g", name, rel)
					got := refine(t, fx, byRun.sources[name], rel)
					want := refine(t, fx, oneByOne{byOne.sources[name]}, rel)
					if got.deg != nil || want.deg != nil {
						t.Fatalf("%s: degraded with every plane available", id)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: by runs\n  %+v\none plane at a time\n  %+v", id, got, want)
					}
					if tol := fx.c.Header.AbsTolerance(rel); got.maxErr > tol {
						t.Errorf("%s: L∞ %g above the tolerance %g", id, got.maxErr, tol)
					}
					if w.nodes == 0 {
						local[id] = got
					} else if !reflect.DeepEqual(got, local[id]) {
						t.Errorf("%s: %s answers\n  %+v\nthe local store answered\n  %+v", id, w.name, got, local[id])
					}
				}
			}
		})
	}
}

// TestRefineMakesOneRequestPerLevelAndNode counts, at the nodes, what a
// refine through the router costs: at most one plane request per level and
// node, every plane asked for exactly once.
func TestRefineMakesOneRequestPerLevelAndNode(t *testing.T) {
	for _, w := range wirings[1:] {
		t.Run(w.name, func(t *testing.T) {
			tr := standUp(t, w, nil)
			fx := fixtures(t)["Jx"]
			got := refine(t, fx, tr.sources["Jx"], 1e-6)
			requests := tr.seen()
			if most := len(fx.c.Header.Levels) * w.nodes; len(requests) == 0 || len(requests) > most {
				t.Fatalf("%d plane requests for one refine, want at most levels × nodes = %d", len(requests), most)
			}
			type levelNode struct{ level, node int }
			perLevelNode := map[levelNode]int{}
			asked := make([]map[int]int, len(got.planes))
			for _, req := range requests {
				perLevelNode[levelNode{req.level, req.node}]++
				if asked[req.level] == nil {
					asked[req.level] = map[int]int{}
				}
				for _, k := range req.planes {
					asked[req.level][k]++
				}
			}
			for ln, n := range perLevelNode {
				if n != 1 {
					t.Errorf("node %d got %d requests for level %d, want 1", ln.node, n, ln.level)
				}
			}
			var planes int64
			for l, want := range got.planes {
				if len(asked[l]) != want {
					t.Errorf("level %d: %d distinct planes asked for, the plan has %d", l, len(asked[l]), want)
				}
				for k, n := range asked[l] {
					if n != 1 || k >= want {
						t.Errorf("plane (%d,%d) asked for %d times, plan wants planes below %d once", l, k, n, want)
					}
				}
				planes += int64(want)
			}
			snap := tr.o.Metrics.Snapshot()
			var reads, served int64
			for i := 0; i < w.nodes; i++ {
				reads += snap.Counters[fmt.Sprintf("shard.node_reads.n%d", i)]
				served += snap.Counters[fmt.Sprintf("shard.node_planes.n%d", i)]
			}
			if reads != int64(len(requests)) || served != planes {
				t.Errorf("node_reads %d, node_planes %d; the nodes saw %d requests for %d planes", reads, served, len(requests), planes)
			}
			if snap.Counters["shard.replica_failover"] != 0 {
				t.Errorf("replica_failover = %d with every node healthy", snap.Counters["shard.replica_failover"])
			}
		})
	}
}

// lostPlane picks a plane in the middle of the deepest level run a healthy
// refine of fx to rel fetches.
func lostPlane(t *testing.T, fx fixture, rel float64) (level, plane int) {
	t.Helper()
	store, err := core.NewPlaneStore(&fx.c.Header, fx.c)
	if err != nil {
		t.Fatal(err)
	}
	healthy := refine(t, fx, store, rel)
	for l, n := range healthy.planes {
		if n > healthy.planes[level] {
			level = l
		}
	}
	if healthy.planes[level] < 3 {
		t.Fatalf("plan %v has no run with a middle", healthy.planes)
	}
	return level, healthy.planes[level] / 2
}

// TestLostPlaneMidRunDegradesLikeOnePlaneProtocol loses one plane in the
// middle of a level's run on every replica. On every wiring the session
// degrades exactly there — same Dropped, Got and AchievedBound as the
// one-plane protocol, same checksum — the planes below it on the level and
// every other level arrive, and on the routed wirings the loss costs the
// failovers of that one plane only.
func TestLostPlaneMidRunDegradesLikeOnePlaneProtocol(t *testing.T) {
	const rel = 1e-6
	fx := fixtures(t)["Jx"]
	level, plane := lostPlane(t, fx, rel)
	lose := func(_ int, _ string, l, k int) error {
		if l == level && k == plane {
			return fmt.Errorf("test: plane (%d,%d) lost: %w", l, k, storage.ErrPermanent)
		}
		return nil
	}
	var local answer
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			byRun, byOne := standUp(t, w, lose), standUp(t, w, lose)
			got := refine(t, fx, byRun.sources["Jx"], rel)
			want := refine(t, fx, oneByOne{byOne.sources["Jx"]}, rel)
			if got.deg == nil || want.deg == nil {
				t.Fatalf("no degradation with plane (%d,%d) lost: by runs %+v, one by one %+v", level, plane, got.deg, want.deg)
			}
			if !reflect.DeepEqual(got.deg.Dropped, []storage.SegmentID{{Level: level, Plane: plane}}) {
				t.Errorf("Dropped = %v, want exactly plane (%d,%d)", got.deg.Dropped, level, plane)
			}
			if got.deg.Got[level] != plane {
				t.Errorf("Got[%d] = %d, want the %d planes below the lost one", level, got.deg.Got[level], plane)
			}
			for l := range got.deg.Got {
				if l != level && got.deg.Got[l] != got.deg.Requested[l] {
					t.Errorf("level %d got %d of %d planes: the loss on level %d leaked", l, got.deg.Got[l], got.deg.Requested[l], level)
				}
			}
			if !reflect.DeepEqual(got.deg, want.deg) {
				t.Errorf("degradation by runs\n  %+v\none plane at a time\n  %+v", got.deg, want.deg)
			}
			if got.checksum != want.checksum || !reflect.DeepEqual(got.planes, want.planes) || got.estimatedError != want.estimatedError {
				t.Errorf("by runs\n  %+v\none plane at a time\n  %+v", got, want)
			}
			if w.nodes == 0 {
				local = got
				return
			}
			if !reflect.DeepEqual(got.deg, local.deg) || got.checksum != local.checksum {
				t.Errorf("%s degrades to\n  %+v\nthe local store to\n  %+v", w.name, got.deg, local.deg)
			}
			if fo := byRun.o.Metrics.Snapshot().Counters["shard.replica_failover"]; fo != int64(w.replication-1) {
				t.Errorf("replica_failover = %d, want %d: only the lost plane moves on", fo, w.replication-1)
			}
		})
	}
}

// TestTransientNodeFaultFailsRemainderOver breaks one node transiently in
// the middle of its run: the planes it served before stay served — no other
// node is asked for them — the planes from the faulty one on fail over
// together, one replica_failover each, and the refine answers what a healthy
// tier answers.
func TestTransientNodeFaultFailsRemainderOver(t *testing.T) {
	const rel = 1e-6
	fx := fixtures(t)["Jx"]
	level, plane := lostPlane(t, fx, rel)
	healthy := refine(t, fx, standUp(t, wirings[0], nil).sources["Jx"], rel)
	for _, w := range wirings[1:] {
		t.Run(w.name, func(t *testing.T) {
			// The plane's primary is the node that breaks, at that plane.
			m := standUpMap(t, w)
			broken := m.Replicas(Key(fx.c.Header.PlaneKey(level, plane)))[0]
			tr := standUp(t, w, func(node int, _ string, l, k int) error {
				if node == broken && l == level && k == plane {
					return fmt.Errorf("test: node %d flaked on plane (%d,%d): %w", node, l, k, storage.ErrTransient)
				}
				return nil
			})
			got := refine(t, fx, tr.sources["Jx"], rel)
			if got.deg != nil || !reflect.DeepEqual(got, healthy) {
				t.Fatalf("answer with node %d flaking\n  %+v\nhealthy\n  %+v", broken, got, healthy)
			}
			// What the broken node was due to serve on the level, in order.
			var due []int
			for k := 0; k < healthy.planes[level]; k++ {
				if m.Replicas(Key(fx.c.Header.PlaneKey(level, k)))[0] == broken {
					due = append(due, k)
				}
			}
			at := 0
			for due[at] != plane {
				at++
			}
			served, moved := due[:at], due[at:]
			if len(served) == 0 || len(moved) < 2 {
				t.Fatalf("node %d is due planes %v of level %d and breaks at %d: the fixture has no prefix or no remainder to test", broken, due, level, plane)
			}
			servedBy := map[int][]int{} // plane -> nodes asked for it
			for _, req := range tr.seen() {
				if req.level != level {
					continue
				}
				for _, k := range req.planes {
					servedBy[k] = append(servedBy[k], req.node)
				}
			}
			for _, k := range served {
				for _, node := range servedBy[k] {
					if node != broken {
						t.Errorf("plane (%d,%d), served by node %d before it broke, was also asked of node %d", level, k, broken, node)
					}
				}
			}
			for _, k := range moved {
				last := servedBy[k][len(servedBy[k])-1]
				if last == broken {
					t.Errorf("plane (%d,%d) was last asked of the broken node %d: it never failed over", level, k, broken)
				}
			}
			if fo := tr.o.Metrics.Snapshot().Counters["shard.replica_failover"]; fo != int64(len(moved)) {
				t.Errorf("replica_failover = %d, want %d: one for each plane from the faulty one on (%v)", fo, len(moved), moved)
			}
		})
	}
}

// standUpMap parses the map standUp would build for w, over placeholder
// URLs: placement depends on node names only.
func standUpMap(t *testing.T, w wiring) *Map {
	t.Helper()
	mapJSON := `{"nodes": [`
	for i := 0; i < w.nodes; i++ {
		if i > 0 {
			mapJSON += ","
		}
		mapJSON += fmt.Sprintf(`{"name": "n%d", "url": "http://n%d:1"}`, i, i)
	}
	m, err := ParseMap([]byte(mapJSON + fmt.Sprintf(`], "replication": %d}`, w.replication)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}
