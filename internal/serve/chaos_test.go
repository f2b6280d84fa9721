package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/faults"
	"pmgard/internal/leakcheck"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// The chaos harness: httptest-driven refine traffic replayed against
// fault-injected sources, asserting the hardened serving tier's contract —
// bounded latency under deadline, correct status mapping, no goroutine
// leaks, checksum agreement between degraded/recovered and healthy serving,
// and breaker state transitions.

// buildCompressed compresses a synthetic WarpX field in memory.
func buildCompressed(t *testing.T, name string) *core.Compressed {
	t.Helper()
	field, err := warpx.DefaultConfig(17, 17, 17).Field(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), name, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// groundTruth computes the checksum a healthy refine of c at rel must
// produce, via a direct session over the unfaulted source.
func groundTruth(t *testing.T, c *core.Compressed, rel float64) string {
	t.Helper()
	h := &c.Header
	sess, err := core.NewSession(h, c)
	if err != nil {
		t.Fatal(err)
	}
	rec, _, deg, err := sess.Refine(context.Background(), h.TheoryEstimator(), h.AbsTolerance(rel))
	if err != nil || deg != nil {
		t.Fatalf("ground-truth refine: deg=%v err=%v", deg, err)
	}
	return tensorChecksum(rec)
}

// newChaosServer builds a server over one pre-wrapped source and starts an
// httptest front end with the full middleware chain.
func newChaosServer(t *testing.T, cfg Config, h *core.Header, src storage.SegmentSource) (*Server, *httptest.Server, *obs.Obs) {
	t.Helper()
	o := obs.New()
	cfg.Obs = o
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if err := srv.addLocal(h, src, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, o
}

// refineResult is one client observation of a /refine request.
type refineResult struct {
	status  int
	detail  string
	body    refineResponse
	elapsed time.Duration
}

// doRefine fires one refine request and decodes either response shape.
func doRefine(t *testing.T, ts *httptest.Server, query string) refineResult {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(ts.URL + "/refine?" + query)
	if err != nil {
		t.Fatalf("GET /refine?%s: %v", query, err)
	}
	defer resp.Body.Close()
	res := refineResult{status: resp.StatusCode, elapsed: time.Since(start)}
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res.body); err != nil {
			t.Fatalf("decode refine response: %v", err)
		}
		return res
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("status %d with undecodable error body: %v", resp.StatusCode, err)
	}
	res.detail = e.Detail
	return res
}

// stallSource blocks reads while stalled; unstall releases present and
// future readers. The inner source is consulted after the gate clears.
type stallSource struct {
	inner   storage.SegmentSource
	mu      sync.Mutex
	gate    chan struct{}
	entered atomic.Int64
}

func (s *stallSource) stall() {
	s.mu.Lock()
	if s.gate == nil {
		s.gate = make(chan struct{})
	}
	s.mu.Unlock()
}

func (s *stallSource) unstall() {
	s.mu.Lock()
	if s.gate != nil {
		close(s.gate)
		s.gate = nil
	}
	s.mu.Unlock()
}

func (s *stallSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	s.mu.Lock()
	gate := s.gate
	s.mu.Unlock()
	if gate != nil {
		s.entered.Add(1)
		<-gate
	}
	return s.inner.Segment(ctx, level, plane)
}

// flakySource fails every read with a transient fault while failing is set.
type flakySource struct {
	inner   storage.SegmentSource
	failing atomic.Bool
}

func (f *flakySource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if f.failing.Load() {
		return nil, fmt.Errorf("chaos: injected outage: %w", storage.ErrTransient)
	}
	return f.inner.Segment(ctx, level, plane)
}

// TestChaosLatencyAndTransientFaults replays concurrent refine waves at 1,
// 4 and 8 workers against a source injecting latency spikes and transient
// read failures. Every request must succeed with the healthy checksum,
// tail latency must stay bounded, and no goroutines may leak.
func TestChaosLatencyAndTransientFaults(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	want := groundTruth(t, c, 1e-4)
	src := faults.WrapSource(c, faults.Config{
		Seed:          42,
		TransientRate: 0.2,
		Latency:       200 * time.Microsecond,
	}, nil)
	_, ts, _ := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		Retries:        8,
		RequestTimeout: 30 * time.Second,
		Breaker:        resilience.BreakerConfig{FailureThreshold: 5},
	}, &c.Header, src)

	for _, workers := range []int{1, 4, 8} {
		const waves = 3
		var durations []time.Duration
		var mu sync.Mutex
		for wave := 0; wave < waves; wave++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res := doRefine(t, ts, "field=Jx&rel=1e-4")
					mu.Lock()
					durations = append(durations, res.elapsed)
					mu.Unlock()
					if res.status != http.StatusOK {
						t.Errorf("workers=%d: status %d (detail %q)", workers, res.status, res.detail)
						return
					}
					if res.body.Checksum != want {
						t.Errorf("workers=%d: checksum %s, want %s", workers, res.body.Checksum, want)
					}
					if res.body.Degraded {
						t.Errorf("workers=%d: degraded under transient-only faults", workers)
					}
				}()
			}
			wg.Wait()
		}
		sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
		if p99 := durations[len(durations)-1]; p99 > 10*time.Second {
			t.Fatalf("workers=%d: p99 refine latency %v exceeds bound", workers, p99)
		}
	}
}

// TestChaosPermanentPlaneLoss serves a field whose store has permanently
// lost a plane: refines must keep succeeding in degraded mode with
// agreeing checksums, and the data-level fault must never open the
// circuit breaker.
func TestChaosPermanentPlaneLoss(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	src := faults.WrapSource(c, faults.Config{
		Seed:      7,
		Permanent: []faults.PlaneID{{Level: 0, Plane: 2}},
	}, nil)
	_, ts, o := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 30 * time.Second,
		Breaker:        resilience.BreakerConfig{FailureThreshold: 3},
	}, &c.Header, src)

	var first refineResult
	for i := 0; i < 8; i++ {
		res := doRefine(t, ts, "field=Jx&rel=1e-4")
		if res.status != http.StatusOK {
			t.Fatalf("refine %d over lost plane: status %d (detail %q)", i, res.status, res.detail)
		}
		if !res.body.Degraded {
			t.Fatalf("refine %d did not report degradation", i)
		}
		if i == 0 {
			first = res
			continue
		}
		if res.body.Checksum != first.body.Checksum {
			t.Fatalf("degraded refine %d checksum %s != first %s", i, res.body.Checksum, first.body.Checksum)
		}
	}
	if state := o.Metrics.Snapshot().Gauges["storage.breaker_state.Jx"]; state != 0 {
		t.Fatalf("breaker state after permanent data faults = %v, want 0 (closed)", state)
	}
}

// TestChaosStallThenRecover drives a refine into a fully stalled store and
// requires the deadline to cut it loose within the acceptance budget
// (request-timeout + 100ms of handler overhead), then verifies the tier
// serves correct data again once the stall clears.
func TestChaosStallThenRecover(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	want := groundTruth(t, c, 1e-4)
	src := &stallSource{inner: c}
	const reqTimeout = time.Second
	_, ts, _ := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		Retries:        4,
		RequestTimeout: reqTimeout,
		Breaker:        resilience.BreakerConfig{FailureThreshold: 5},
	}, &c.Header, src)

	src.stall()
	res := doRefine(t, ts, "field=Jx&rel=1e-4")
	if res.status != http.StatusGatewayTimeout {
		t.Fatalf("stalled refine: status %d (detail %q), want 504", res.status, res.detail)
	}
	if res.detail != "deadline" {
		t.Fatalf("stalled refine detail = %q, want deadline", res.detail)
	}
	if res.elapsed > reqTimeout+100*time.Millisecond {
		t.Fatalf("stalled refine returned in %v, budget %v", res.elapsed, reqTimeout+100*time.Millisecond)
	}

	// The client-side timeout= parameter caps the deadline even lower.
	start := time.Now()
	res = doRefine(t, ts, "field=Jx&rel=1e-4&timeout=150ms")
	if res.status != http.StatusGatewayTimeout {
		t.Fatalf("capped refine: status %d, want 504", res.status)
	}
	if elapsed := time.Since(start); elapsed > 250*time.Millisecond {
		t.Fatalf("timeout=150ms refine took %v", elapsed)
	}

	src.unstall()
	res = doRefine(t, ts, "field=Jx&rel=1e-4")
	if res.status != http.StatusOK || res.body.Checksum != want {
		t.Fatalf("recovered refine: status %d checksum %s, want 200 %s", res.status, res.body.Checksum, want)
	}
	if res.body.Degraded {
		t.Fatal("recovered refine reported degraded")
	}
}

// TestChaosBreakerOpensAndRecovers walks the circuit breaker through its
// whole state machine with real traffic: transient outage opens it,
// open-state refines fail fast with 503/breaker_open, and a half-open
// probe after the cooldown closes it again.
func TestChaosBreakerOpensAndRecovers(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	want := groundTruth(t, c, 1e-4)
	src := &flakySource{inner: c}
	const cooldown = 100 * time.Millisecond
	_, ts, o := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 10 * time.Second,
		Breaker:        resilience.BreakerConfig{FailureThreshold: 3, Cooldown: cooldown},
	}, &c.Header, src)

	src.failing.Store(true)
	for i := 0; i < 3; i++ {
		res := doRefine(t, ts, "field=Jx&rel=1e-4")
		if res.status != http.StatusBadGateway || res.detail != "upstream" {
			t.Fatalf("outage refine %d: status %d detail %q, want 502 upstream", i, res.status, res.detail)
		}
	}
	if state := o.Metrics.Snapshot().Gauges["storage.breaker_state.Jx"]; state != 1 {
		t.Fatalf("breaker state after outage = %v, want 1 (open)", state)
	}
	res := doRefine(t, ts, "field=Jx&rel=1e-4")
	if res.status != http.StatusServiceUnavailable || res.detail != "breaker_open" {
		t.Fatalf("open-breaker refine: status %d detail %q, want 503 breaker_open", res.status, res.detail)
	}
	if fastFails := o.Metrics.Snapshot().Counters["resilience.breaker.Jx.fast_fails"]; fastFails == 0 {
		t.Fatal("open breaker did not fast-fail the read")
	}

	src.failing.Store(false)
	time.Sleep(cooldown + 50*time.Millisecond)
	res = doRefine(t, ts, "field=Jx&rel=1e-4")
	if res.status != http.StatusOK || res.body.Checksum != want {
		t.Fatalf("half-open probe refine: status %d checksum %q, want 200 %s", res.status, res.body.Checksum, want)
	}
	if state := o.Metrics.Snapshot().Gauges["storage.breaker_state.Jx"]; state != 0 {
		t.Fatalf("breaker state after recovery = %v, want 0 (closed)", state)
	}
}

// TestChaosShedUnderOverload pins the single inflight slot with a stalled
// refine and requires the admission controller to shed the second request
// with 503 + Retry-After instead of queueing unboundedly.
func TestChaosShedUnderOverload(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	src := &stallSource{inner: c}
	_, ts, o := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 30 * time.Second,
		MaxInflight:    1,
		MaxQueue:       0,
	}, &c.Header, src)

	src.stall()
	firstDone := make(chan refineResult, 1)
	go func() { firstDone <- doRefine(t, ts, "field=Jx&rel=1e-4") }()
	waitUntil(t, func() bool { return src.entered.Load() >= 1 })

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
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if shed := o.Metrics.Snapshot().Counters["serve.shed"]; shed != 1 {
		t.Fatalf("serve.shed = %d, want 1", shed)
	}

	src.unstall()
	if res := <-firstDone; res.status != http.StatusOK {
		t.Fatalf("pinned refine after unstall: status %d", res.status)
	}
}

// TestChaosCancelledWaiterDoesNotPoisonSurvivor coalesces two refines onto
// the same cold-cache flight, times the first one out, and requires the
// survivor to still receive the correct plane data — the serving-level
// mirror of the servecache detach contract.
func TestChaosCancelledWaiterDoesNotPoisonSurvivor(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	want := groundTruth(t, c, 1e-4)
	src := &stallSource{inner: c}
	_, ts, o := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 30 * time.Second,
	}, &c.Header, src)

	src.stall()
	survivorDone := make(chan refineResult, 1)
	go func() { survivorDone <- doRefine(t, ts, "field=Jx&rel=1e-4") }()
	waitUntil(t, func() bool { return src.entered.Load() >= 1 })

	// The impatient waiter coalesces onto the survivor's first-plane flight
	// and gives up after 150ms.
	res := doRefine(t, ts, "field=Jx&rel=1e-4&timeout=150ms")
	if res.status != http.StatusGatewayTimeout {
		t.Fatalf("impatient refine: status %d (detail %q), want 504", res.status, res.detail)
	}

	src.unstall()
	surv := <-survivorDone
	if surv.status != http.StatusOK {
		t.Fatalf("survivor refine: status %d (detail %q)", surv.status, surv.detail)
	}
	if surv.body.Checksum != want {
		t.Fatalf("survivor checksum %s, want %s", surv.body.Checksum, want)
	}
	if detached := o.Metrics.Snapshot().Counters["servecache.detached"]; detached == 0 {
		t.Fatal("no waiter detach was recorded despite the timed-out request")
	}
}

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within deadline")
}
