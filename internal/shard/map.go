// Package shard is the distributed serving tier: a static, gossip-free
// shard map that consistent-hashes (codec, field, level, plane) segment
// keys across N storage/cache nodes, the node-side /planes HTTP endpoint
// that exposes a node-local serve stack's decompressed planes, and the
// router-side client that implements servecache.Source over that
// endpoint with per-node circuit breakers, retry/backoff and replica
// failover.
//
// The MGARD framework paper (arXiv:2401.05994) refactors data across a
// facility's hierarchical storage; this package is that idea as a service:
// one router process fans plane fetches out to N nodes, each running
// today's serve stack, so aggregate cache bytes and store bandwidth scale
// with node count. The map is static JSON — no gossip, no coordination,
// stdlib only — and every router holding the same map file routes every
// key identically.
//
// Placement: each key hashes onto a ring of virtual nodes (FNV-1a 64);
// its replicas are the first R distinct nodes clockwise from the key's
// point. R is Map.Replication for hot planes (bit-plane index below
// Map.HotPlanes; HotPlanes 0 means every plane is hot) and 1 for cold
// planes — the low planes are the shared prefix every session fetches, so
// replicating them spreads the hottest traffic while cold tails stay
// single-homed. DESIGN.md §14 documents the contract.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/url"
	"os"
	"sort"
	"strconv"

	"pmgard/internal/servecache"
)

// Node is one serving node of the shard map.
type Node struct {
	// Name labels the node in metrics (shard.node_reads.<name>, per-node
	// breaker gauges). Must be unique within the map.
	Name string `json:"name"`
	// URL is the node's base API URL, e.g. "http://node0:8080".
	URL string `json:"url"`
}

// Map is the static shard map: the node set plus the placement policy.
// Routers holding byte-identical map files place every key identically.
type Map struct {
	// Nodes is the serving node set; order is irrelevant to placement
	// (the ring is keyed by node name), but must be non-empty.
	Nodes []Node `json:"nodes"`
	// Replication is the replica count for hot planes. Values below 1 or
	// above len(Nodes) are clamped into [1, len(Nodes)].
	Replication int `json:"replication"`
	// HotPlanes bounds the hot set: planes with index < HotPlanes get
	// Replication replicas, deeper planes get exactly one. 0 (the default)
	// makes every plane hot — full replication, the safe choice for small
	// maps and the failover tests.
	HotPlanes int `json:"hot_planes,omitempty"`
	// VNodes is the number of virtual ring points per node; more points
	// smooth the key distribution. 0 means the default of 64.
	VNodes int `json:"vnodes,omitempty"`

	// ring is the precomputed consistent-hash ring, built by finish.
	ring []ringPoint
}

// ringPoint is one virtual node on the hash ring.
type ringPoint struct {
	hash uint64
	node int // index into Nodes
}

// ParseMap parses and validates a shard map from its JSON form and builds
// the placement ring.
func ParseMap(data []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("shard: parse map: %w", err)
	}
	if err := m.finish(); err != nil {
		return nil, err
	}
	return &m, nil
}

// LoadMap reads and parses a shard map file.
func LoadMap(path string) (*Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	m, err := ParseMap(data)
	if err != nil {
		return nil, fmt.Errorf("shard: map %s: %w", path, err)
	}
	return m, nil
}

// finish validates the map and precomputes the ring. It is idempotent and
// must be called before Replicas; ParseMap and LoadMap call it.
func (m *Map) finish() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("shard: map has no nodes")
	}
	seen := make(map[string]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.Name == "" {
			return fmt.Errorf("shard: node %d has no name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("shard: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		u, err := url.Parse(n.URL)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("shard: node %q has invalid URL %q", n.Name, n.URL)
		}
	}
	if m.Replication < 1 {
		m.Replication = 1
	}
	if m.Replication > len(m.Nodes) {
		m.Replication = len(m.Nodes)
	}
	if m.HotPlanes < 0 {
		return fmt.Errorf("shard: hot_planes %d is negative", m.HotPlanes)
	}
	if m.VNodes <= 0 {
		m.VNodes = 64
	}
	m.ring = make([]ringPoint, 0, len(m.Nodes)*m.VNodes)
	for i, n := range m.Nodes {
		for v := 0; v < m.VNodes; v++ {
			m.ring = append(m.ring, ringPoint{hash: hash64(n.Name + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(m.ring, func(a, b int) bool {
		if m.ring[a].hash != m.ring[b].hash {
			return m.ring[a].hash < m.ring[b].hash
		}
		// Tie-break on node index so equal hashes (vanishingly rare but
		// possible) still order deterministically across routers.
		return m.ring[a].node < m.ring[b].node
	})
	return nil
}

// hash64 is FNV-1a over s with a splitmix64 finalizer — stable across
// processes and Go versions, which is what a static shard map needs
// (maphash would re-seed per process). The finalizer matters: FNV-1a ends
// by XORing the last input byte into the low byte of the sum, so keys that
// differ only in a trailing plane digit would land on one narrow arc of
// the ring and pile onto a single node.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is splitmix64's avalanche finalizer: every input bit affects every
// output bit.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashKey collapses a placement key to its ring position. The separator
// cannot occur in codec IDs, and level/plane are rendered in decimal, so
// distinct keys cannot collide textually.
func hashKey(k servecache.Key) uint64 {
	return hash64(k.Codec + "|" + k.Field + "|" + strconv.Itoa(k.Level) + "|" + strconv.Itoa(k.Plane))
}

// replication returns the effective replica count for a plane index.
func (m *Map) replication(plane int) int {
	if m.HotPlanes == 0 || plane < m.HotPlanes {
		return m.Replication
	}
	return 1
}

// Replicas returns the indexes into m.Nodes that host key, primary first:
// the first R distinct nodes clockwise from the key's ring position, where
// R is the plane's effective replication. The order is deterministic, so
// every router agrees on the primary and on the failover sequence.
func (m *Map) Replicas(k servecache.Key) []int {
	want := m.replication(k.Plane)
	h := hashKey(k)
	start := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].hash >= h })
	out := make([]int, 0, want)
	taken := make(map[int]bool, want)
	for i := 0; i < len(m.ring) && len(out) < want; i++ {
		p := m.ring[(start+i)%len(m.ring)]
		if !taken[p.node] {
			taken[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}
