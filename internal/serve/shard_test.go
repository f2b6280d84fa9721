package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/leakcheck"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/shard"
)

// TestParseTolerance pins the validation contract of the tolerance
// parameters: strconv.ParseFloat accepts "NaN" and "+Inf", and both used to
// slip past the plain `<= 0` check because every comparison with NaN is
// false. Only finite positive values may reach the planner.
func TestParseTolerance(t *testing.T) {
	c := buildCompressed(t, "Jx")
	h := &c.Header
	cases := []struct {
		query string
		ok    bool
	}{
		{"abs=0.5", true},
		{"rel=1e-4", true},
		{"abs=1e-300", true},
		{"", false},         // no parameter at all
		{"abs=", false},     // empty value falls through to "required"
		{"abs=zero", false}, // unparsable
		{"abs=0", false},    // zero
		{"abs=-1", false},   // negative
		{"abs=NaN", false},  // parses, compares false against everything
		{"abs=nan", false},  // ParseFloat is case-insensitive here
		{"abs=+Inf", false}, // positive but not finite
		{"abs=-Inf", false}, // negative infinity
		{"abs=Infinity", false},
		{"rel=NaN", false},
		{"rel=Inf", false},
		{"rel=-1e-4", false},
		{"rel=0", false},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodGet, "/refine?"+tc.query, nil)
		tol, err := parseTolerance(r, h)
		if tc.ok && (err != nil || !(tol > 0)) {
			t.Errorf("parseTolerance(%q) = %v, %v; want a positive tolerance", tc.query, tol, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseTolerance(%q) = %v, nil; want an error", tc.query, tol)
		}
	}
}

// TestRefineRejectsNonFiniteTolerance drives the NaN/Inf rejection end to
// end: the response must be a structured 400 with the bad_tolerance detail
// tag, not a refine over a poisoned tolerance.
func TestRefineRejectsNonFiniteTolerance(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{"abs=NaN", "abs=%2BInf", "rel=NaN", "abs=-Inf"} {
		resp, err := http.Get(ts.URL + "/refine?field=Jx&" + q)
		if err != nil {
			t.Fatal(err)
		}
		var e errorResponse
		decodeErr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || decodeErr != nil {
			t.Fatalf("refine with %s: status %d (decode %v), want 400", q, resp.StatusCode, decodeErr)
		}
		if e.Detail != "bad_tolerance" {
			t.Fatalf("refine with %s: detail %q, want bad_tolerance", q, e.Detail)
		}
	}
}

// TestRetryAfterTracksBreakerCooldown trips the field breaker under two
// different -breaker-cooldown settings and requires the 503 breaker_open
// response's Retry-After header to report the actual cooldown remaining
// rather than the old hardcoded 1 second.
func TestRetryAfterTracksBreakerCooldown(t *testing.T) {
	for _, cooldown := range []time.Duration{2 * time.Second, 5 * time.Second} {
		t.Run(cooldown.String(), func(t *testing.T) {
			c := buildCompressed(t, "Jx")
			src := &flakySource{inner: c}
			_, ts, _ := newChaosServer(t, Config{
				CacheBytes:     64 << 20,
				RequestTimeout: 10 * time.Second,
				Breaker:        resilience.BreakerConfig{FailureThreshold: 3, Cooldown: cooldown},
			}, &c.Header, src)

			src.failing.Store(true)
			for i := 0; i < 3; i++ {
				doRefine(t, ts, "field=Jx&rel=1e-4")
			}
			resp, err := http.Get(ts.URL + "/refine?field=Jx&rel=1e-4")
			if err != nil {
				t.Fatal(err)
			}
			var e errorResponse
			decodeErr := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable || decodeErr != nil || e.Detail != "breaker_open" {
				t.Fatalf("open-breaker refine: status %d detail %q (decode %v), want 503 breaker_open",
					resp.StatusCode, e.Detail, decodeErr)
			}
			// The breaker opened milliseconds ago, so the remaining cooldown
			// rounds up to exactly the configured seconds.
			want := strconv.Itoa(int(cooldown / time.Second))
			if ra := resp.Header.Get("Retry-After"); ra != want {
				t.Fatalf("Retry-After = %q under -breaker-cooldown %v, want %q", ra, cooldown, want)
			}
		})
	}
}

// TestRetryAfterScalesWithQueueDepth pins the shed path's Retry-After: one
// inflight slot and a full two-deep queue mean a shed client is told to
// come back in 1 + 2/1 = 3 seconds, not a flat 1.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	src := &stallSource{inner: c}
	srv, ts, _ := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 30 * time.Second,
		MaxInflight:    1,
		MaxQueue:       2,
	}, &c.Header, src)

	src.stall()
	done := make(chan refineResult, 3)
	go func() { done <- doRefine(t, ts, "field=Jx&rel=1e-4") }()
	waitUntil(t, func() bool { return src.entered.Load() >= 1 })
	for i := 0; i < 2; i++ {
		go func() { done <- doRefine(t, ts, "field=Jx&rel=1e-4") }()
	}
	waitUntil(t, func() bool { return srv.adm.Stats().Queued == 2 })

	resp, err := http.Get(ts.URL + "/refine?field=Jx&rel=1e-4")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || decodeErr != nil || e.Detail != "shed" {
		t.Fatalf("overflow refine: status %d detail %q (decode %v), want 503 shed", resp.StatusCode, e.Detail, decodeErr)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "3" {
		t.Fatalf("shed Retry-After = %q with 2 queued over 1 slot, want 3", ra)
	}
	src.unstall()
	for i := 0; i < 3; i++ {
		if res := <-done; res.status != http.StatusOK {
			t.Fatalf("queued refine after unstall: status %d (detail %q)", res.status, res.detail)
		}
	}
}

// startNode builds one shard node: a server holding the artifact with the
// /planes endpoints mounted, and an httptest front end.
func startNode(t *testing.T, c *core.Compressed) (*httptest.Server, *obs.Obs) {
	t.Helper()
	o := obs.New()
	srv, err := New(Config{CacheBytes: 64 << 20, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	srv.MountPlanes()
	if err := srv.addLocal(&c.Header, c, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, o
}

// startRouter builds a server over the map's shard and an httptest
// front end. The 1-byte cache keeps every plane uncacheable (oversize), so
// each refine exercises the network path while concurrent misses still
// collapse through singleflight.
func startRouter(t *testing.T, m *shard.Map, cacheBytes int64) (*Server, *httptest.Server, *obs.Obs) {
	t.Helper()
	o := obs.New()
	srv, err := New(Config{CacheBytes: cacheBytes, RequestTimeout: 30 * time.Second, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if err := srv.AddShard(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, o
}

// TestShardRouterServesAndFailsOver is the shard tier's integration test:
// a router over three node processes must serve refinements byte-identical
// to single-node serving, spread plane reads across the nodes, and — with
// replication 2 — keep serving the same bytes after one node dies mid-run,
// degrading to replicas instead of erroring.
func TestShardRouterServesAndFailsOver(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	want := groundTruth(t, c, 1e-4)

	const nodes = 3
	nodeTS := make([]*httptest.Server, nodes)
	for i := range nodeTS {
		nodeTS[i], _ = startNode(t, c)
	}
	mapJSON := fmt.Sprintf(`{
		"nodes": [
			{"name": "n0", "url": %q},
			{"name": "n1", "url": %q},
			{"name": "n2", "url": %q}
		],
		"replication": 2
	}`, nodeTS[0].URL, nodeTS[1].URL, nodeTS[2].URL)
	m, err := shard.ParseMap([]byte(mapJSON))
	if err != nil {
		t.Fatal(err)
	}
	_, rts, ro := startRouter(t, m, 1)

	// The router discovered the shard's fields and serves the public API.
	var fields struct {
		Fields []string `json:"fields"`
	}
	getJSON(t, rts, "/fields", &fields)
	if len(fields.Fields) != 1 || fields.Fields[0] != "Jx" {
		t.Fatalf("router fields = %v, want [Jx]", fields.Fields)
	}
	var open openResponse
	getJSON(t, rts, "/open?field=Jx", &open)
	if open.Field != "Jx" || open.Levels == 0 || open.Planes == 0 {
		t.Fatalf("router open response incomplete: %+v", open)
	}

	// Concurrent refines through the router agree with single-node serving.
	const workers = 4
	var wg sync.WaitGroup
	results := make([]refineResult, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = doRefine(t, rts, "field=Jx&rel=1e-4")
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res.status != http.StatusOK {
			t.Fatalf("router refine %d: status %d (detail %q)", i, res.status, res.detail)
		}
		if res.body.Checksum != want {
			t.Fatalf("router refine %d checksum %s, want single-node %s", i, res.body.Checksum, want)
		}
		if res.body.Degraded {
			t.Fatalf("router refine %d degraded with all nodes up", i)
		}
	}

	// Placement spread the reads: more than one node served planes, and no
	// failover happened with every node healthy.
	snap := ro.Metrics.Snapshot()
	reads := make([]int64, nodes)
	var served int
	for i := 0; i < nodes; i++ {
		reads[i] = snap.Counters[fmt.Sprintf("shard.node_planes.n%d", i)]
		if reads[i] > 0 {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("plane reads did not spread across nodes: %v", reads)
	}
	if snap.Counters["shard.replica_failover"] != 0 {
		t.Fatalf("replica_failover = %d with all nodes healthy, want 0", snap.Counters["shard.replica_failover"])
	}

	// Kill the busiest node mid-run. With replication 2 every plane still
	// has a live replica, so the refine must return the same bytes.
	busiest := 0
	for i := 1; i < nodes; i++ {
		if reads[i] > reads[busiest] {
			busiest = i
		}
	}
	nodeTS[busiest].Close()
	res := doRefine(t, rts, "field=Jx&rel=1e-4")
	if res.status != http.StatusOK {
		t.Fatalf("refine after killing n%d: status %d (detail %q)", busiest, res.status, res.detail)
	}
	if res.body.Checksum != want {
		t.Fatalf("refine after killing n%d: checksum %s, want %s", busiest, res.body.Checksum, want)
	}
	if res.body.Degraded {
		t.Fatalf("refine after killing n%d reported degraded: replicas should cover", busiest)
	}
	snap = ro.Metrics.Snapshot()
	if snap.Counters["shard.replica_failover"] == 0 {
		t.Fatal("no replica failover recorded after killing the busiest node")
	}
	if got := snap.Counters[fmt.Sprintf("shard.node_planes.n%d", busiest)]; got != reads[busiest] {
		t.Fatalf("dead node n%d plane count moved from %d to %d", busiest, reads[busiest], got)
	}
}

// TestShardNodeSharesCacheWithLocalRefines pins the node-side cache
// contract: /planes traffic and the node's own /refine sessions use the
// same cache keys, so a plane served to a router is a hit for a local
// analyst and vice versa.
func TestShardNodeSharesCacheWithLocalRefines(t *testing.T) {
	c := buildCompressed(t, "Jx")
	ts, o := startNode(t, c)

	// A local refine warms the node cache.
	if res := doRefine(t, ts, "field=Jx&rel=1e-4"); res.status != http.StatusOK {
		t.Fatalf("local refine: status %d", res.status)
	}
	misses := o.Metrics.Snapshot().Counters["servecache.misses"]

	// A /planes read of a plane the refine already fetched must be a hit.
	resp, err := http.Get(ts.URL + "/planes?field=Jx&level=0&plane=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/planes read: status %d", resp.StatusCode)
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["servecache.misses"] != misses {
		t.Fatalf("/planes read missed the cache (misses %d -> %d): node and refine keys diverged",
			misses, snap.Counters["servecache.misses"])
	}
	if snap.Counters["servecache.hits"] == 0 {
		t.Fatal("/planes read recorded no cache hit")
	}

	// Out-of-range and unknown-field reads are structured 4xx, not 5xx.
	for _, q := range []string{"field=Jx&level=99&plane=0", "field=Nope&level=0&plane=0", "field=Jx&level=0&plane=abc"} {
		resp, err := http.Get(ts.URL + "/planes?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Fatalf("/planes?%s: status %d, want 4xx", q, resp.StatusCode)
		}
	}
}
