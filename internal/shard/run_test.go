package shard_test

import (
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/promise"
	"pmgard/internal/servecache"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// The run protocol's wirings — a local store, a router over two nodes, a
// router over three nodes at replication 2 — read by sessions that ask for
// each level's missing planes as one run. What they answer is held by the
// promise matrix (internal/promise), which stands them up (promise.StandUp);
// these tests count what a run costs the nodes.

// compressed33 is the suite's 33³ WarpX field, compressed once.
var compressed33 = sync.OnceValues(func() (map[string]*core.Compressed, error) {
	field, err := warpx.DefaultConfig(33, 33, 33).Field("Jx", 5)
	if err != nil {
		return nil, err
	}
	c, err := core.Compress(field, core.DefaultConfig(), "Jx", 0)
	return map[string]*core.Compressed{"Jx": c}, err
})

// fixtures returns the suite's fields by name.
func fixtures(t *testing.T) map[string]*core.Compressed {
	t.Helper()
	fx, err := compressed33()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// wirings are the routers the cost tests stand up.
var wirings = []struct {
	name               string
	nodes, replication int
}{
	{"router over 2 nodes", 2, 2},
	{"router over 3 nodes at replication 2", 3, 2},
}

// answer is everything a refine tells its caller.
type answer struct {
	planes         []int
	bytesFetched   int64
	estimatedError float64
	checksum       uint32
	deg            *core.Degradation
}

// refine opens a fresh shared session of fx over src — its own cache, so
// every plane is a miss — and refines it to rel.
func refine(t *testing.T, fx *core.Compressed, src servecache.Source, rel float64) answer {
	t.Helper()
	h := &fx.Header
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
		deg:            deg,
	}
}

// TestRefineMakesOneRequestPerLevelAndNode counts, at the nodes, what a
// refine through the router costs: at most one plane request per level and
// node, every plane asked for exactly once.
func TestRefineMakesOneRequestPerLevelAndNode(t *testing.T) {
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			tr := promise.StandUp(t, fixtures(t), w.nodes, w.replication, nil)
			fx := fixtures(t)["Jx"]
			got := refine(t, fx, tr.Sources["Jx"], 1e-6)
			requests := tr.Requests()
			if most := len(fx.Header.Levels) * w.nodes; len(requests) == 0 || len(requests) > most {
				t.Fatalf("%d plane requests for one refine, want at most levels × nodes = %d", len(requests), most)
			}
			type levelNode struct{ level, node int }
			perLevelNode := map[levelNode]int{}
			asked := make([]map[int]int, len(got.planes))
			for _, req := range requests {
				perLevelNode[levelNode{req.Level, req.Node}]++
				if asked[req.Level] == nil {
					asked[req.Level] = map[int]int{}
				}
				for _, k := range req.Planes {
					asked[req.Level][k]++
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
			snap := tr.Obs.Metrics.Snapshot()
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
func lostPlane(t *testing.T, fx *core.Compressed, rel float64) (level, plane int) {
	t.Helper()
	store, err := core.NewPlaneStore(&fx.Header, fx)
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

// TestTransientNodeFaultFailsRemainderOver breaks one node transiently in
// the middle of its run: the planes it served before stay served — no other
// node is asked for them — the planes from the faulty one on fail over
// together, one replica_failover each, and the refine answers what a healthy
// tier answers.
func TestTransientNodeFaultFailsRemainderOver(t *testing.T) {
	const rel = 1e-6
	fx := fixtures(t)["Jx"]
	level, plane := lostPlane(t, fx, rel)
	healthy := refine(t, fx, promise.StandUp(t, fixtures(t), 0, 0, nil).Sources["Jx"], rel)
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			// The plane's primary is the node that breaks, at that plane;
			// the map names it once the nodes are up, before any read.
			var brokenAt atomic.Int64
			tr := promise.StandUp(t, fixtures(t), w.nodes, w.replication, func(node int, _ string, l, k int) error {
				if int64(node) == brokenAt.Load() && l == level && k == plane {
					return fmt.Errorf("test: node %d flaked on plane (%d,%d): %w", node, l, k, storage.ErrTransient)
				}
				return nil
			})
			m := tr.Map
			broken := m.Replicas(fx.Header.PlaneKey(level, plane))[0]
			brokenAt.Store(int64(broken))
			got := refine(t, fx, tr.Sources["Jx"], rel)
			if got.deg != nil || !reflect.DeepEqual(got, healthy) {
				t.Fatalf("answer with node %d flaking\n  %+v\nhealthy\n  %+v", broken, got, healthy)
			}
			// What the broken node was due to serve on the level, in order.
			var due []int
			for k := 0; k < healthy.planes[level]; k++ {
				if m.Replicas(fx.Header.PlaneKey(level, k))[0] == broken {
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
			for _, req := range tr.Requests() {
				if req.Level != level {
					continue
				}
				for _, k := range req.Planes {
					servedBy[k] = append(servedBy[k], req.Node)
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
			if fo := tr.Obs.Metrics.Snapshot().Counters["shard.replica_failover"]; fo != int64(len(moved)) {
				t.Errorf("replica_failover = %d, want %d: one for each plane from the faulty one on (%v)", fo, len(moved), moved)
			}
		})
	}
}

// TestRouterStopsAtLostPlane loses a plane in the middle of a level's run
// on every node. Once its last replica has failed it, no /planes request
// names a higher plane of the level, and the degraded refine answers what
// the local store, which reads plane by plane, answers — bytes included.
func TestRouterStopsAtLostPlane(t *testing.T) {
	const rel = 1e-6
	fx := fixtures(t)["Jx"]
	level, plane := lostPlane(t, fx, rel)
	lose := func(_ int, _ string, l, k int) error {
		if l == level && k == plane {
			return fmt.Errorf("test: plane (%d,%d) lost: %w", l, k, storage.ErrPermanent)
		}
		return nil
	}
	local := refine(t, fx, promise.StandUp(t, fixtures(t), 0, 0, lose).Sources["Jx"], rel)
	if local.deg == nil {
		t.Fatalf("no degradation report with plane (%d,%d) lost", level, plane)
	}
	for _, w := range wirings {
		t.Run(w.name, func(t *testing.T) {
			tr := promise.StandUp(t, fixtures(t), w.nodes, w.replication, lose)
			got := refine(t, fx, tr.Sources["Jx"], rel)
			if !reflect.DeepEqual(got, local) {
				t.Errorf("answer through the router\n  %+v\nlocal store\n  %+v", got, local)
			}
			reqs := tr.Requests()
			final := -1 // the request that failed the lost plane's last replica
			for i, req := range reqs {
				if req.Level == level && slices.Contains(req.Planes, plane) {
					final = i
				}
			}
			if final < 0 {
				t.Fatalf("no request named the lost plane (%d,%d)", level, plane)
			}
			for _, req := range reqs[final+1:] {
				if req.Level == level && slices.ContainsFunc(req.Planes, func(k int) bool { return k > plane }) {
					t.Errorf("node %d was asked for planes %v of level %d after plane %d failed on every replica", req.Node, req.Planes, level, plane)
				}
			}
		})
	}
}
