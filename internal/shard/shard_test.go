package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/servecache"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

func TestParseMapValidation(t *testing.T) {
	bad := []string{
		`{"nodes": []}`,
		`{"nodes": [{"name": "", "url": "http://a:1"}]}`,
		`{"nodes": [{"name": "a", "url": "http://a:1"}, {"name": "a", "url": "http://b:1"}]}`,
		`{"nodes": [{"name": "a", "url": "not a url"}]}`,
		`{"nodes": [{"name": "a", "url": "http://a:1"}], "hot_planes": -1}`,
		`not json`,
	}
	for _, s := range bad {
		if _, err := ParseMap([]byte(s)); err == nil {
			t.Errorf("ParseMap(%s) succeeded, want error", s)
		}
	}

	m, err := ParseMap([]byte(`{
		"nodes": [{"name": "a", "url": "http://a:1"}, {"name": "b", "url": "http://b:1"}],
		"replication": 99
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Replication != 2 {
		t.Fatalf("replication 99 over 2 nodes clamped to %d, want 2", m.Replication)
	}
	if m.VNodes != 64 {
		t.Fatalf("default vnodes = %d, want 64", m.VNodes)
	}
	m, err = ParseMap([]byte(`{"nodes": [{"name": "a", "url": "http://a:1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if m.Replication != 1 {
		t.Fatalf("missing replication defaulted to %d, want 1", m.Replication)
	}
}

// threeNodeMap returns a parsed three-node map with the given replication
// and hot-plane bound, pointing at placeholder URLs.
func threeNodeMap(t *testing.T, replication, hotPlanes int) *Map {
	t.Helper()
	m, err := ParseMap([]byte(fmt.Sprintf(`{
		"nodes": [
			{"name": "n0", "url": "http://n0:1"},
			{"name": "n1", "url": "http://n1:1"},
			{"name": "n2", "url": "http://n2:1"}
		],
		"replication": %d,
		"hot_planes": %d
	}`, replication, hotPlanes)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplicasPlacement pins the placement contract: deterministic across
// independently parsed maps (routers agree byte-for-byte), distinct
// replicas, hot planes replicated and cold planes single-homed, and every
// node owning a share of the keyspace.
func TestReplicasPlacement(t *testing.T) {
	m1 := threeNodeMap(t, 2, 8)
	m2 := threeNodeMap(t, 2, 8)
	primaries := make(map[int]int)
	for level := 0; level < 4; level++ {
		for plane := 0; plane < 32; plane++ {
			k := Key{Codec: "interp", Field: "Jx@0", Level: level, Plane: plane}
			r1, r2 := m1.Replicas(k), m2.Replicas(k)
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("replicas for %+v differ across identical maps: %v vs %v", k, r1, r2)
			}
			want := 1
			if plane < 8 {
				want = 2
			}
			if len(r1) != want {
				t.Fatalf("replicas for %+v = %v, want %d replicas (hot_planes 8)", k, r1, want)
			}
			seen := make(map[int]bool)
			for _, n := range r1 {
				if n < 0 || n >= 3 || seen[n] {
					t.Fatalf("replicas for %+v = %v: out of range or repeated node", k, r1)
				}
				seen[n] = true
			}
			primaries[r1[0]]++
		}
	}
	for n := 0; n < 3; n++ {
		if primaries[n] == 0 {
			t.Fatalf("node %d is primary for no key out of 128: placement skewed %v", n, primaries)
		}
	}
	// HotPlanes 0 means every plane is hot.
	m3 := threeNodeMap(t, 3, 0)
	if got := m3.Replicas(Key{Codec: "interp", Field: "Jx@0", Level: 0, Plane: 30}); len(got) != 3 {
		t.Fatalf("hot_planes 0 replicas = %v, want all 3 nodes", got)
	}
}

// buildArtifact compresses a small synthetic field for the HTTP tests.
func buildArtifact(t *testing.T) *core.Compressed {
	t.Helper()
	field, err := warpx.DefaultConfig(9, 9, 9).Field("Jx", 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), "Jx", 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// nodeSource adapts one artifact to the NodeSource interface, serving its
// planes through a PlaneStore like internal/serve's node wiring does.
type nodeSource struct {
	h     *core.Header
	store *core.PlaneStore
	// lost, when set, makes that (level, plane) fail permanently.
	lost *[2]int
}

func (s *nodeSource) PlaneField(name string) (NodeField, bool) {
	if name != s.h.FieldName {
		return NodeField{}, false
	}
	return NodeField{
		Header: s.h,
		Fetch: func(ctx context.Context, level, plane int) ([]byte, int64, error) {
			if s.lost != nil && s.lost[0] == level && s.lost[1] == plane {
				return nil, 0, fmt.Errorf("test: plane lost: %w", storage.ErrPermanent)
			}
			return s.store.FetchPlane(ctx, s.h.PlaneKey(level, plane))
		},
	}, true
}

func (s *nodeSource) PlaneFields() []string { return []string{s.h.FieldName} }

// startNodes launches n node handlers over the artifact and returns their
// test servers plus a parsed map addressing them with the given
// replication (hot_planes 0: every plane replicated).
func startNodes(t *testing.T, c *core.Compressed, n, replication int, lost *[2]int) ([]*httptest.Server, *Map) {
	t.Helper()
	store, err := core.NewPlaneStore(&c.Header, c)
	if err != nil {
		t.Fatal(err)
	}
	servers := make([]*httptest.Server, n)
	mapJSON := `{"nodes": [`
	for i := range servers {
		nh := NewNodeHandler(&nodeSource{h: &c.Header, store: store, lost: lost}, obs.New())
		servers[i] = httptest.NewServer(nh)
		t.Cleanup(servers[i].Close)
		if i > 0 {
			mapJSON += ","
		}
		mapJSON += fmt.Sprintf(`{"name": "n%d", "url": %q}`, i, servers[i].URL)
	}
	mapJSON += fmt.Sprintf(`], "replication": %d}`, replication)
	m, err := ParseMap([]byte(mapJSON))
	if err != nil {
		t.Fatal(err)
	}
	return servers, m
}

// fieldKey is the cache key of plane (level, plane) of c's field.
func fieldKey(c *core.Compressed, level, plane int) servecache.Key {
	return c.Header.PlaneKey(level, plane)
}

// TestRouterFetchesAllPlanes reads every plane of the artifact through a
// three-node shard and requires byte equality with a direct store fetch,
// plus discovery (Fields, Header) agreement.
func TestRouterFetchesAllPlanes(t *testing.T) {
	c := buildArtifact(t)
	_, m := startNodes(t, c, 3, 2, nil)
	o := obs.New()
	r, err := NewRouter(RouterConfig{Map: m, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	fields, err := r.Fields(ctx)
	if err != nil || len(fields) != 1 || fields[0] != "Jx" {
		t.Fatalf("Fields = %v, %v; want [Jx]", fields, err)
	}
	h, err := r.Header(ctx, "Jx")
	if err != nil {
		t.Fatal(err)
	}
	if h.FieldName != c.Header.FieldName || len(h.Levels) != len(c.Header.Levels) || h.Planes != c.Header.Planes {
		t.Fatalf("fetched header %+v does not match artifact", h)
	}

	store, err := core.NewPlaneStore(&c.Header, c)
	if err != nil {
		t.Fatal(err)
	}
	fc := r.FieldClient(h)
	for level := range h.Levels {
		for plane := 0; plane < h.Planes; plane++ {
			raw, payload, err := fc.FetchPlane(ctx, fieldKey(c, level, plane))
			if err != nil {
				t.Fatalf("fetch (%d,%d): %v", level, plane, err)
			}
			wantRaw, wantPayload, err := store.FetchPlane(ctx, fieldKey(c, level, plane))
			if err != nil {
				t.Fatal(err)
			}
			if payload != wantPayload {
				t.Fatalf("plane (%d,%d) payload %d, want %d", level, plane, payload, wantPayload)
			}
			if !reflect.DeepEqual(raw, wantRaw) {
				t.Fatalf("plane (%d,%d) bitset differs from direct store fetch", level, plane)
			}
		}
	}
	snap := o.Metrics.Snapshot()
	var total int64
	for i := 0; i < 3; i++ {
		total += snap.Counters[fmt.Sprintf("shard.node_reads.n%d", i)]
	}
	if want := int64(len(h.Levels) * h.Planes); total != want {
		t.Fatalf("node_reads total %d, want %d (one per plane)", total, want)
	}
	if snap.Counters["shard.replica_failover"] != 0 {
		t.Fatalf("failover = %d with healthy nodes", snap.Counters["shard.replica_failover"])
	}
}

// TestRouterFailsOverToReplica kills one node of a replication-2 shard and
// requires every plane to still be served (from replicas), with failover
// counted, while a 1-replica shard loses the dead node's share.
func TestRouterFailsOverToReplica(t *testing.T) {
	c := buildArtifact(t)
	servers, m := startNodes(t, c, 3, 2, nil)
	o := obs.New()
	// No breakers: this test wants every read attempted so the per-plane
	// failover behavior is visible; breaker interaction is tested below.
	r, err := NewRouter(RouterConfig{Map: m, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h := &c.Header
	fc := r.FieldClient(h)

	servers[1].Close()
	for level := range h.Levels {
		for plane := 0; plane < h.Planes; plane++ {
			if _, _, err := fc.FetchPlane(ctx, fieldKey(c, level, plane)); err != nil {
				t.Fatalf("fetch (%d,%d) with n1 dead: %v", level, plane, err)
			}
		}
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["shard.replica_failover"] == 0 {
		t.Fatal("no failover recorded with a dead node in a replication-2 shard")
	}
	if snap.Counters["shard.node_reads.n1"] != 0 {
		t.Fatalf("dead node served %d reads", snap.Counters["shard.node_reads.n1"])
	}
}

// TestRouterPermanentLossWinsOverTransient requires a permanent verdict
// from any replica to beat transient errors from others, so sessions
// degrade around genuinely lost planes instead of retrying forever.
func TestRouterPermanentLossWinsOverTransient(t *testing.T) {
	c := buildArtifact(t)
	lost := [2]int{0, 0}
	servers, m := startNodes(t, c, 2, 2, &lost)
	o := obs.New()
	r, err := NewRouter(RouterConfig{Map: m, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	// One replica answers 410 (plane lost), the other is dead (transient).
	servers[1].Close()
	fc := r.FieldClient(&c.Header)
	_, _, err = fc.FetchPlane(context.Background(), fieldKey(c, 0, 0))
	if err == nil {
		t.Fatal("fetch of a lost plane succeeded")
	}
	if storage.Classify(err) != storage.FaultPermanent {
		t.Fatalf("lost-plane error classifies %v (%v), want FaultPermanent", storage.Classify(err), err)
	}
}

// TestRouterBreakerFailsFastAfterNodeDeath pins the breaker layering: once
// a dead node's breaker opens, later fetches skip its retry budget (the
// breaker fast-fails) and go straight to the replica, and RetryAfter
// reports a positive cooldown.
func TestRouterBreakerFailsFastAfterNodeDeath(t *testing.T) {
	c := buildArtifact(t)
	servers, m := startNodes(t, c, 2, 2, nil)
	o := obs.New()
	r, err := NewRouter(RouterConfig{Map: m, Obs: o, Breaker: resilience.BreakerConfig{FailureThreshold: 2}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h := &c.Header
	fc := r.FieldClient(h)
	servers[0].Close()

	for level := range h.Levels {
		for plane := 0; plane < h.Planes; plane++ {
			if _, _, err := fc.FetchPlane(ctx, fieldKey(c, level, plane)); err != nil {
				t.Fatalf("fetch (%d,%d): %v", level, plane, err)
			}
		}
	}
	snap := o.Metrics.Snapshot()
	if snap.Gauges["storage.breaker_state.node.n0"] != 1 {
		t.Fatalf("dead node breaker state = %v, want 1 (open)", snap.Gauges["storage.breaker_state.node.n0"])
	}
	if snap.Counters["resilience.breaker.node.n0.fast_fails"] == 0 {
		t.Fatal("open breaker never fast-failed: reads kept burning the retry budget")
	}
	if r.RetryAfter() <= 0 {
		t.Fatal("RetryAfter = 0 with an open node breaker")
	}
}

// TestRouterPropagatesTraceparent requires the router's node requests to
// carry the caller's trace as a W3C traceparent header, so node span trees
// hang off the router's.
func TestRouterPropagatesTraceparent(t *testing.T) {
	c := buildArtifact(t)
	store, err := core.NewPlaneStore(&c.Header, c)
	if err != nil {
		t.Fatal(err)
	}
	var gotTP string
	nh := NewNodeHandler(&nodeSource{h: &c.Header, store: store}, obs.New())
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTP = r.Header.Get("traceparent")
		nh.ServeHTTP(w, r)
	}))
	defer ts.Close()
	m, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "n0", "url": %q}]}`, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: m, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	tc := obs.NewTraceContext()
	ctx := obs.ContextWithTrace(context.Background(), tc)
	fc := r.FieldClient(&c.Header)
	if _, _, err := fc.FetchPlane(ctx, fieldKey(c, 0, 0)); err != nil {
		t.Fatal(err)
	}
	parsed, ok := obs.ParseTraceParent(gotTP)
	if !ok {
		t.Fatalf("node saw no valid traceparent, got %q", gotTP)
	}
	if parsed.TraceID != tc.TraceID {
		t.Fatalf("propagated trace id %s, want %s", parsed.TraceID, tc.TraceID)
	}
}

// TestRouterRejectsBadResponses pins the router-side validation: a node
// response of the wrong length is corruption, and node-side 400s for
// out-of-range coordinates come back as permanent faults.
func TestRouterRejectsBadResponses(t *testing.T) {
	c := buildArtifact(t)
	// A lying node: returns a truncated body for every plane.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write([]byte("short"))
	}))
	defer ts.Close()
	m, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "n0", "url": %q}]}`, ts.URL)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: m, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	fc := r.FieldClient(&c.Header)
	_, _, err = fc.FetchPlane(context.Background(), fieldKey(c, 0, 0))
	if err == nil || !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("truncated node response error = %v, want ErrCorrupt", err)
	}

	// A real node answers out-of-range coordinates with 400 → permanent.
	_, m2 := startNodes(t, c, 1, 1, nil)
	r2, err := NewRouter(RouterConfig{Map: m2, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	fc2 := r2.FieldClient(&c.Header)
	key := fieldKey(c, 0, 0)
	key.Plane = c.Header.Planes + 5
	_, _, err = fc2.FetchPlane(context.Background(), key)
	if err == nil || storage.Classify(err) != storage.FaultPermanent {
		t.Fatalf("out-of-range fetch error = %v, want a permanent fault", err)
	}
}

// countingTransport counts the response-body bytes its client reads.
type countingTransport struct{ read *int64 }

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, c.read}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	read *int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.read += int64(n)
	return n, err
}

// TestRouterBoundsNodeResponses pins what a node can make the router
// allocate: a plane body is read through a limit of the header's
// RawPlaneSize+1, so a node streaming far more is cut off there, classified
// as corruption, and failed over like any other bad replica; the discovery
// documents are capped too.
func TestRouterBoundsNodeResponses(t *testing.T) {
	c := buildArtifact(t)
	h := &c.Header
	const flood = 4 << 20
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		chunk := make([]byte, 64<<10)
		for sent := 0; sent < flood; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return // the router hung up, as it should
			}
		}
	}))
	defer liar.Close()
	var read int64
	client := &http.Client{Transport: countingTransport{&read}}

	m, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "liar", "url": %q}]}`, liar.URL)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: m, Client: client, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_, _, err = r.FieldClient(h).FetchPlane(ctx, fieldKey(c, 0, 0))
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("over-length plane error = %v, want ErrCorrupt", err)
	}
	if limit := int64(h.Levels[0].RawPlaneSize) + 1; read > limit {
		t.Fatalf("router read %d bytes of an over-length plane, limit is RawPlaneSize+1 = %d", read, limit)
	}
	read = 0
	if _, err := r.Fields(ctx); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("over-length /planes/fields error = %v, want ErrCorrupt", err)
	}
	if _, err := r.Header(ctx, "Jx"); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("over-length /planes/header error = %v, want ErrCorrupt", err)
	}
	if read > 2*(maxDocBytes+1) {
		t.Fatalf("router read %d bytes of two over-length documents, cap is %d each", read, maxDocBytes+1)
	}

	// Next to an honest replica the liar costs failovers, never an answer.
	servers, _ := startNodes(t, c, 1, 1, nil)
	m2, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "liar", "url": %q}, {"name": "n1", "url": %q}], "replication": 2}`,
		liar.URL, servers[0].URL)))
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	r2, err := NewRouter(RouterConfig{Map: m2, Client: client, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	fc := r2.FieldClient(h)
	for level := range h.Levels {
		for plane := 0; plane < h.Planes; plane++ {
			if _, _, err := fc.FetchPlane(ctx, fieldKey(c, level, plane)); err != nil {
				t.Fatalf("fetch (%d,%d) beside a lying replica: %v", level, plane, err)
			}
		}
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["shard.replica_failover"] == 0 || snap.Counters["shard.node_reads.liar"] != 0 {
		t.Fatalf("failovers %d, reads served by the liar %d; want > 0 and 0",
			snap.Counters["shard.replica_failover"], snap.Counters["shard.node_reads.liar"])
	}
}
