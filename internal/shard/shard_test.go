package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/servecache"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

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
			k := servecache.Key{Codec: "interp", Field: "Jx@0", Level: level, Plane: plane}
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
	if got := m3.Replicas(servecache.Key{Codec: "interp", Field: "Jx@0", Level: 0, Plane: 30}); len(got) != 3 {
		t.Fatalf("hot_planes 0 replicas = %v, want all 3 nodes", got)
	}
}

// buildArtifact compresses a small synthetic field for the HTTP tests.
func buildArtifact(t testing.TB) *core.Compressed {
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
		Fetch: func(ctx context.Context, level int, planes []int) []servecache.Plane {
			out := make([]servecache.Plane, len(planes))
			for i, plane := range planes {
				if s.lost != nil && s.lost[0] == level && s.lost[1] == plane {
					out[i].Err = fmt.Errorf("test: plane lost: %w", storage.ErrPermanent)
					continue
				}
				out[i] = s.store.FetchPlanes(ctx, s.h.PlaneRun(level, []int{plane}))[0]
			}
			return out
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

// fetchOne fetches the run of the one plane key names and unpacks its
// verdict.
func fetchOne(src servecache.Source, ctx context.Context, key servecache.Key) ([]byte, int64, error) {
	p := src.FetchPlanes(ctx, servecache.Run{Codec: key.Codec, Field: key.Field, Level: key.Level, Planes: []int{key.Plane}})[0]
	return p.Raw, p.Payload, p.Err
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
	all := make([]int, h.Planes)
	for k := range all {
		all[k] = k
	}
	for level := range h.Levels {
		got := fc.FetchPlanes(ctx, h.PlaneRun(level, all))
		want := store.FetchPlanes(ctx, h.PlaneRun(level, all))
		if len(got) != h.Planes || len(want) != h.Planes {
			t.Fatalf("level %d: %d router verdicts, %d store verdicts, want %d each", level, len(got), len(want), h.Planes)
		}
		for plane := range all {
			if got[plane].Err != nil || want[plane].Err != nil {
				t.Fatalf("fetch (%d,%d): router %v, store %v", level, plane, got[plane].Err, want[plane].Err)
			}
			if got[plane].Payload != want[plane].Payload {
				t.Fatalf("plane (%d,%d) payload %d, want %d", level, plane, got[plane].Payload, want[plane].Payload)
			}
			if !reflect.DeepEqual(got[plane].Raw, want[plane].Raw) {
				t.Fatalf("plane (%d,%d) bitset differs from direct store fetch", level, plane)
			}
		}
	}
	snap := o.Metrics.Snapshot()
	var requests, planes int64
	for i := 0; i < 3; i++ {
		requests += snap.Counters[fmt.Sprintf("shard.node_reads.n%d", i)]
		planes += snap.Counters[fmt.Sprintf("shard.node_planes.n%d", i)]
	}
	if want := int64(len(h.Levels) * h.Planes); planes != want {
		t.Fatalf("node_planes total %d, want %d (one per plane)", planes, want)
	}
	if most := int64(len(h.Levels) * 3); requests < int64(len(h.Levels)) || requests > most {
		t.Fatalf("node_reads total %d for %d levels over 3 nodes, want one request per level and node at most (%d)", requests, len(h.Levels), most)
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
			if _, _, err := fetchOne(fc, ctx, fieldKey(c, level, plane)); err != nil {
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
	_, _, err = fetchOne(fc, context.Background(), fieldKey(c, 0, 0))
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
			if _, _, err := fetchOne(fc, ctx, fieldKey(c, level, plane)); err != nil {
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
	if _, _, err := fetchOne(fc, ctx, fieldKey(c, 0, 0)); err != nil {
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
	_, _, err = fetchOne(fc, context.Background(), fieldKey(c, 0, 0))
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
	_, _, err = fetchOne(fc2, context.Background(), key)
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

// TestRouterRefusesMalformedHeader: a node's /planes/header goes through the
// same core.ParseHeader as a store's metadata, so a header whose level
// claims 32 TiB planes is corruption at discovery, not a size the router
// later asks nodes for and reads bodies against.
func TestRouterRefusesMalformedHeader(t *testing.T) {
	c := buildArtifact(t)
	bad := c.Header
	bad.Levels = append([]core.LevelMeta(nil), c.Header.Levels...)
	bad.Levels[1].RawPlaneSize = 1 << 45
	node := httptest.NewServer(NewNodeHandler(fieldsSource{"Jx": NodeField{Header: &bad}}, obs.New()))
	defer node.Close()
	m, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "n0", "url": %q}]}`, node.URL)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: m, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Header(context.Background(), "Jx")
	if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), "level 1") {
		t.Fatalf("header with a forged raw plane size: %v, want ErrCorrupt naming level 1", err)
	}
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
	_, _, err = fetchOne(r.FieldClient(h), ctx, fieldKey(c, 0, 0))
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
			if _, _, err := fetchOne(fc, ctx, fieldKey(c, level, plane)); err != nil {
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

// TestNodeAnswersRuns pins the wire format of GET /planes: a run's 200 body
// is its planes' bitsets back to back with Content-Length and
// X-Shard-Planes set; a run of one is the one-plane request, answered with
// that plane's bytes; a lost plane cuts the answer to the prefix below it
// and, first in a run, answers 410; and a run the node will not serve — too
// many indexes, a repeated or out-of-range one — is a 400.
func TestNodeAnswersRuns(t *testing.T) {
	c := buildArtifact(t)
	h := &c.Header
	lost := [2]int{1, 3}
	servers, _ := startNodes(t, c, 1, 1, &lost)
	store, err := core.NewPlaneStore(h, c)
	if err != nil {
		t.Fatal(err)
	}
	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(servers[0].URL + "/planes?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	wantBody := func(level int, planes ...int) (body []byte, payload int64) {
		for _, p := range store.FetchPlanes(context.Background(), h.PlaneRun(level, planes)) {
			if p.Err != nil {
				t.Fatal(p.Err)
			}
			body, payload = append(body, p.Raw...), payload+p.Payload
		}
		return body, payload
	}
	for _, tc := range []struct {
		query  string
		level  int
		served []int
	}{
		{"field=Jx&level=0&plane=2", 0, []int{2}},
		{"field=Jx&level=0&plane=5,0,3", 0, []int{5, 0, 3}},
		{"field=Jx&level=1&plane=0,1,2,3,4,5", 1, []int{0, 1, 2}}, // plane 3 is lost: the prefix below it
		{"field=Jx&level=1&plane=4,3", 1, []int{4}},
	} {
		resp, body := get(tc.query)
		want, payload := wantBody(tc.level, tc.served...)
		if resp.StatusCode != http.StatusOK || !reflect.DeepEqual(body, want) {
			t.Fatalf("%s: status %d, %d body bytes; want 200 and the %d bytes of planes %v", tc.query, resp.StatusCode, len(body), len(want), tc.served)
		}
		if resp.ContentLength != int64(len(want)) || resp.Header.Get(planesHeader) != fmt.Sprint(len(tc.served)) ||
			resp.Header.Get(payloadHeader) != fmt.Sprint(payload) || resp.Header.Get("Content-Type") != "application/octet-stream" {
			t.Fatalf("%s: Content-Length %d, headers %v; want %d, %s %d, %s %d", tc.query, resp.ContentLength, resp.Header,
				len(want), planesHeader, len(tc.served), payloadHeader, payload)
		}
	}
	if resp, _ := get("field=Jx&level=1&plane=3,4"); resp.StatusCode != http.StatusGone {
		t.Fatalf("a run starting at the lost plane: status %d, want 410", resp.StatusCode)
	}
	all := make([]string, h.Planes+1)
	for k := range all {
		all[k] = fmt.Sprint(k % h.Planes)
	}
	for _, query := range []string{
		"field=Jx&level=0&plane=1,1",
		"field=Jx&level=0&plane=1,,2",
		"field=Jx&level=0&plane=-1",
		fmt.Sprintf("field=Jx&level=0&plane=0,%d", h.Planes),
		"field=Jx&level=0&plane=" + strings.Join(all, ","),
		fmt.Sprintf("field=Jx&level=%d&plane=0", len(h.Levels)),
		"field=Jx&level=0",
	} {
		if resp, _ := get(query); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", query, resp.StatusCode)
		}
	}
	// The JSON documents carry the same nosniff as the error documents.
	for _, path := range []string{"/planes/fields", "/planes/header?field=Jx", "/planes/header?field=Nope"} {
		resp, err := http.Get(servers[0].URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.Header.Get("X-Content-Type-Options") != "nosniff" || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("%s: headers %v, want application/json and nosniff", path, resp.Header)
		}
	}
}

// TestNodeRefusesOversizeRun: a run whose bitsets would exceed MaxRunBytes
// is refused with 400 before anything is fetched, and the router never sends
// one — it splits the level into runs under the limit.
func TestNodeRefusesOversizeRun(t *testing.T) {
	c := buildArtifact(t)
	// The same field under a header that claims huge planes: 3 of them fit
	// a response, 4 do not.
	big := c.Header
	big.Levels = append([]core.LevelMeta(nil), c.Header.Levels...)
	big.Levels[0].RawPlaneSize = MaxRunBytes/3 - 1
	fetched := 0
	nh := NewNodeHandler(fieldsSource{"Jx": NodeField{Header: &big, Fetch: func(_ context.Context, _ int, planes []int) []servecache.Plane {
		fetched++
		return make([]servecache.Plane, len(planes)) // empty bitsets: the test never reads them
	}}}, obs.New())
	ts := httptest.NewServer(nh)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/planes?field=Jx&level=0&plane=0,1,2,3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || fetched != 0 {
		t.Fatalf("a %d-byte run: status %d after %d fetches, want 400 and none", 4*big.Levels[0].RawPlaneSize, resp.StatusCode, fetched)
	}

	var asked [][]string
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		asked = append(asked, strings.Split(r.URL.Query().Get("plane"), ","))
		http.Error(w, "not this time", http.StatusGone)
	}))
	defer counting.Close()
	m, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "n0", "url": %q}]}`, counting.URL)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: m, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	r.FieldClient(&big).FetchPlanes(context.Background(), big.PlaneRun(0, []int{0, 1, 2, 3, 4, 5, 6}))
	if len(asked) == 0 {
		t.Fatal("the router asked for nothing")
	}
	for _, planes := range asked {
		if len(planes) > 3 {
			t.Fatalf("the router asked for %d planes of %d bytes in one request: %v", len(planes), big.Levels[0].RawPlaneSize, planes)
		}
	}
}

// TestRouterRefusesDeclaredOverLengthUnread: a response that declares a
// Content-Length above what the router asked for is corruption on its
// headers alone — not a byte of its body is read.
func TestRouterRefusesDeclaredOverLengthUnread(t *testing.T) {
	c := buildArtifact(t)
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", fmt.Sprint(maxDocBytes+1))
		w.Header().Set(planesHeader, "1")
		w.Write(make([]byte, maxDocBytes+1))
	}))
	defer liar.Close()
	var read int64
	m, err := ParseMap([]byte(fmt.Sprintf(`{"nodes": [{"name": "liar", "url": %q}]}`, liar.URL)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(RouterConfig{Map: m, Client: &http.Client{Transport: countingTransport{&read}}, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Fields(ctx); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("over-length /planes/fields error = %v, want ErrCorrupt", err)
	}
	if _, _, err := fetchOne(r.FieldClient(&c.Header), ctx, fieldKey(c, 0, 0)); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("over-length plane error = %v, want ErrCorrupt", err)
	}
	if read != 0 {
		t.Fatalf("router read %d bytes of bodies whose declared length already condemned them", read)
	}
}
