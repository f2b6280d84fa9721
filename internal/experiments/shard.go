package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"pmgard/internal/core"
	"pmgard/internal/obs"
	"pmgard/internal/serve"
	"pmgard/internal/servecache"
	"pmgard/internal/shard"
)

// shardWorkers is the concurrent reader count of the sweep's counted round.
const shardWorkers = 4

// ShardPoint is one node-count measurement of the shard-tier sweep: a
// router issuing a fixed random plane-read workload against n /planes
// nodes, each holding a servecache whose budget is a fixed fraction of the
// artifact, so aggregate cache bytes — and the warm-read fraction — grow
// with node count.
type ShardPoint struct {
	// Nodes is the node count of this configuration.
	Nodes int
	// Reads is the number of counted plane reads issued through the router.
	Reads int
	// HitRate is the aggregate node-cache hit fraction over the counted
	// round (hits / (hits+misses) summed across nodes).
	HitRate float64
}

// cacheCounts sums servecache hits and misses across the nodes' registries.
func cacheCounts(nodes []*obs.Obs) (hits, misses int64) {
	for _, o := range nodes {
		snap := o.Metrics.Snapshot()
		hits += snap.Counters["servecache.hits"]
		misses += snap.Counters["servecache.misses"]
	}
	return hits, misses
}

// ShardSweep measures the warm-read fraction of the shard tier as the node
// count grows. One WarpX artifact backs every configuration; each node
// gets a servecache budgeted at 40% of the artifact's decompressed bytes,
// so one node cannot hold the working set but three nodes together over-
// provision it. Per node count it starts real HTTP /planes nodes on
// loopback, routes a seeded uniform-random read workload (16 reads per
// plane, 4 concurrent workers, replication 1) through a shard.Router after
// one warming pass, and reports the aggregate node-cache hit rate of the
// counted round: every miss it removes is a store read plus a lossless
// decompression the tier no longer pays. What a routed refine costs in
// wall clock is the benchmark's refine-routed workload, not this sweep.
func ShardSweep(p Params, nodeCounts []int) ([]ShardPoint, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(nodeCounts) == 0 {
		return nil, fmt.Errorf("experiments: shard sweep has no node counts")
	}
	c, err := compressWarpX(p, "Jx", 1)
	if err != nil {
		return nil, err
	}
	// Serve from a store file, as `serve -role node` does: a cache miss pays
	// a ranged file read plus lossless decompression, which is the work the
	// growing aggregate cache eliminates.
	dir, err := os.MkdirTemp("", "pmgard-shard-")
	if err != nil {
		return nil, fmt.Errorf("experiments: shard sweep: %w", err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "jx.pmgd")
	if err := c.WriteFile(path); err != nil {
		return nil, err
	}
	h := &c.Header
	var totalRaw int64
	for _, lv := range h.Levels {
		totalRaw += int64(lv.RawPlaneSize) * int64(h.Planes)
	}
	budget := totalRaw * 2 / 5
	if budget < 1 {
		budget = 1
	}
	points := make([]ShardPoint, 0, len(nodeCounts))
	for _, n := range nodeCounts {
		pt, err := shardRound(p, h, path, n, budget)
		if err != nil {
			return nil, err
		}
		points = append(points, pt)
	}
	return points, nil
}

// shardRound runs one node-count configuration of the sweep: n nodes
// wired as `serve -role node -in path` wires them (internal/serve), each on
// a loopback listener with its own registry and a cache of the given
// budget.
func shardRound(p Params, h *core.Header, path string, n int, budget int64) (ShardPoint, error) {
	nodes := make([]*serve.Server, 0, n)
	regs := make([]*obs.Obs, 0, n)
	defer func() {
		for _, node := range nodes {
			node.Shutdown(0)
		}
	}()
	mapJSON := `{"nodes": [`
	for i := 0; i < n; i++ {
		o := obs.New()
		node, err := serve.New(serve.Config{CacheBytes: budget, Obs: o})
		if err != nil {
			return ShardPoint{}, err
		}
		nodes, regs = append(nodes, node), append(regs, o)
		if err := node.AddStore(path); err != nil {
			return ShardPoint{}, err
		}
		node.MountPlanes()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return ShardPoint{}, fmt.Errorf("experiments: shard bench listener: %w", err)
		}
		go node.Serve(ln)
		if i > 0 {
			mapJSON += ","
		}
		mapJSON += fmt.Sprintf(`{"name": "n%d", "url": "http://%s"}`, i, ln.Addr())
	}
	mapJSON += `], "replication": 1}`
	m, err := shard.ParseMap([]byte(mapJSON))
	if err != nil {
		return ShardPoint{}, err
	}
	// Default transports keep only two idle connections per host; with more
	// concurrent workers than that, every extra request pays a TCP dial.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: shardWorkers, MaxIdleConns: n * shardWorkers}}
	defer client.CloseIdleConnections()
	r, err := shard.NewRouter(shard.RouterConfig{Map: m, Client: client, Obs: obs.New()})
	if err != nil {
		return ShardPoint{}, err
	}
	fc := r.FieldClient(h)

	keys := make([]servecache.Key, 0, len(h.Levels)*h.Planes)
	for level := range h.Levels {
		for plane := 0; plane < h.Planes; plane++ {
			keys = append(keys, h.PlaneKey(level, plane))
		}
	}
	ctx := context.Background()
	// Warming pass: touch every plane once so the counted round measures the
	// steady state (each node's LRU holds whatever fits of its partition).
	// Each read is a run of one plane: the sweep measures the nodes' caches
	// under random plane access, not the run protocol.
	fetch := func(k servecache.Key) error {
		return fc.FetchPlanes(ctx, h.PlaneRun(k.Level, []int{k.Plane}))[0].Err
	}
	for _, k := range keys {
		if err := fetch(k); err != nil {
			return ShardPoint{}, fmt.Errorf("experiments: shard warmup (%d,%d): %w", k.Level, k.Plane, err)
		}
	}
	hits0, misses0 := cacheCounts(regs)

	rng := rand.New(rand.NewSource(p.Seed*1000 + int64(n)))
	reads := 16 * len(keys)
	workload := make([]servecache.Key, reads)
	for i := range workload {
		workload[i] = keys[rng.Intn(len(keys))]
	}
	errs := make([]error, shardWorkers)
	var wg sync.WaitGroup
	for w := 0; w < shardWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < reads; i += shardWorkers {
				if err := fetch(workload[i]); err != nil && errs[w] == nil {
					errs[w] = err
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ShardPoint{}, fmt.Errorf("experiments: shard counted round: %w", err)
		}
	}
	hits1, misses1 := cacheCounts(regs)
	hits, misses := hits1-hits0, misses1-misses0
	var hitRate float64
	if hits+misses > 0 {
		hitRate = float64(hits) / float64(hits+misses)
	}
	return ShardPoint{Nodes: n, Reads: reads, HitRate: hitRate}, nil
}

// ExpShard is the exp-shard runner: the node-count sweep at 1, 2 and 3
// nodes, tabulated.
func ExpShard(p Params) ([]*Table, error) {
	points, err := ShardSweep(p, []int{1, 2, 3})
	if err != nil {
		return nil, err
	}
	return []*Table{ShardTable(points)}, nil
}

// ShardTable formats sweep points as the exp-shard table.
func ShardTable(points []ShardPoint) *Table {
	t := &Table{
		ID:    "exp-shard",
		Title: "Shard tier scaling: random plane reads through the router vs node count",
		Note: "One artifact, per-node cache budget 40% of its decompressed bytes, replication 1. " +
			"The hit rate grows with node count because aggregate cache bytes grow — each miss " +
			"removed is a store read plus a lossless decompression.",
		Columns: []string{"nodes", "reads", "hit_rate"},
	}
	for _, pt := range points {
		t.AddRow(pt.Nodes, pt.Reads, fmt.Sprintf("%.3f", pt.HitRate))
	}
	return t
}
