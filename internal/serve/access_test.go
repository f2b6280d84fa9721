package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pmgard/internal/obs"
	"pmgard/internal/resilience"
)

// logBuffer is a concurrency-safe sink for the access log under test.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *logBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines parses every JSON access-log line written so far.
func (b *logBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	raw := b.buf.String()
	b.mu.Unlock()
	var out []map[string]any
	for _, ln := range strings.Split(raw, "\n") {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("unparsable access log line %q: %v", ln, err)
		}
		out = append(out, m)
	}
	return out
}

// tracedResult is one request observation including its trace identity.
type tracedResult struct {
	status  int
	traceID string
	detail  string
}

// doTraced fires one GET and captures status, the traceparent response
// header's trace id, and the error detail tag if any.
func doTraced(t *testing.T, ts *httptest.Server, path string) tracedResult {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	res := tracedResult{status: resp.StatusCode}
	tc, ok := obs.ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("GET %s: bad traceparent response header %q", path, resp.Header.Get("traceparent"))
	}
	res.traceID = tc.TraceID
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.NewDecoder(resp.Body).Decode(&e) == nil {
			res.detail = e.Detail
		}
	}
	return res
}

// waitForCond polls cond until it holds or a 5s deadline expires.
func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAccessLogOneLinePerRequest drives the serving tier through its
// status taxonomy — 200, 404, 504 deadline, 503 shed, 499 client gone —
// and asserts the access log carries exactly one structured line per
// request, each with a well-formed trace id matching the traceparent
// response header where one was observable.
func TestAccessLogOneLinePerRequest(t *testing.T) {
	c := buildCompressed(t, "Jx")
	stall := &stallSource{inner: c}
	logBuf := &logBuffer{}
	_, ts, _ := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 30 * time.Second,
		MaxInflight:    1,
		MaxQueue:       0,
		AccessLog:      logBuf,
		SLOLatency:     time.Minute,
	}, &c.Header, stall)

	wantTrace := map[string]int{} // trace id -> expected logged status
	// 200: a healthy refine.
	ok := doTraced(t, ts, "/refine?field=Jx&rel=1e-3")
	if ok.status != 200 {
		t.Fatalf("healthy refine status %d", ok.status)
	}
	wantTrace[ok.traceID] = 200
	// 404: unknown field.
	nf := doTraced(t, ts, "/refine?field=Nope&rel=1e-3")
	if nf.status != 404 {
		t.Fatalf("unknown field status %d", nf.status)
	}
	wantTrace[nf.traceID] = 404
	// 504: a stalled store outlasting the request deadline.
	stall.stall()
	dl := doTraced(t, ts, "/refine?field=Jx&rel=1e-5&timeout=100ms")
	if dl.status != 504 || dl.detail != "deadline" {
		t.Fatalf("deadline refine: status %d detail %q", dl.status, dl.detail)
	}
	wantTrace[dl.traceID] = 504
	// Drain the orphaned flight the deadline left behind (its fetch is still
	// parked at the gate): release the stall and let a healthy refine warm
	// the cache through the 1e-5 depth, so the next scenario's deeper refine
	// must enter the store again rather than coalesce.
	stall.unstall()
	warm := doTraced(t, ts, "/refine?field=Jx&rel=1e-5")
	if warm.status != 200 {
		t.Fatalf("warm refine status %d", warm.status)
	}
	wantTrace[warm.traceID] = 200
	// 503 shed: a stalled request holds the only inflight slot; the next
	// arrival is shed immediately.
	stall.stall()
	entered := stall.entered.Load()
	heldDone := make(chan tracedResult, 1)
	go func() { heldDone <- doTraced(t, ts, "/refine?field=Jx&rel=1e-6") }()
	waitForCond(t, "held refine to reach the store", func() bool { return stall.entered.Load() > entered })
	shed := doTraced(t, ts, "/refine?field=Jx&rel=1e-6")
	if shed.status != 503 || shed.detail != "shed" {
		t.Fatalf("shed refine: status %d detail %q", shed.status, shed.detail)
	}
	wantTrace[shed.traceID] = 503
	stall.unstall()
	held := <-heldDone
	if held.status != 200 {
		t.Fatalf("held refine finished with %d", held.status)
	}
	wantTrace[held.traceID] = 200
	// 499: the client walks away mid-refine.
	stall.stall()
	entered = stall.entered.Load()
	cctx, ccancel := context.WithCancel(context.Background())
	cancelErr := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(cctx, "GET", ts.URL+"/refine?field=Jx&rel=1e-7", nil)
		_, err := http.DefaultClient.Do(req)
		cancelErr <- err
	}()
	waitForCond(t, "doomed refine to reach the store", func() bool { return stall.entered.Load() > entered })
	ccancel()
	if err := <-cancelErr; err == nil {
		t.Fatal("cancelled client request reported success")
	}
	waitForCond(t, "the 499 access line", func() bool { return len(logBuf.lines(t)) == 7 })
	stall.unstall()

	lines := logBuf.lines(t)
	if len(lines) != 7 {
		t.Fatalf("%d access lines for 7 requests:\n%+v", len(lines), lines)
	}
	statuses := map[int]int{}
	outcomes := map[string]int{}
	for _, ln := range lines {
		status := int(ln["status"].(float64))
		statuses[status]++
		if o, _ := ln["outcome"].(string); o != "" {
			outcomes[o]++
		}
		id, _ := ln["trace_id"].(string)
		if len(id) != 32 {
			t.Errorf("line has malformed trace_id %q: %+v", id, ln)
		}
		if wantStatus, known := wantTrace[id]; known && wantStatus != status {
			t.Errorf("trace %s logged status %d, response header promised %d", id, status, wantStatus)
		}
		for _, key := range []string{"field", "tolerance", "bytes_fetched", "cache_hits", "degraded", "duration_seconds", "endpoint", "method"} {
			if _, present := ln[key]; !present {
				t.Errorf("line missing %s: %+v", key, ln)
			}
		}
	}
	want := map[int]int{200: 3, 404: 1, 503: 1, 504: 1, 499: 1}
	for status, n := range want {
		if statuses[status] != n {
			t.Errorf("status %d logged %d times, want %d (all: %v)", status, statuses[status], n, statuses)
		}
	}
	for _, o := range []string{"shed", "deadline", "client_gone", "not_found"} {
		if outcomes[o] != 1 {
			t.Errorf("outcome %q logged %d times, want 1 (all: %v)", o, outcomes[o], outcomes)
		}
	}
	// The healthy line carries the fetch accounting.
	for _, ln := range lines {
		if id, _ := ln["trace_id"].(string); id == ok.traceID {
			if ln["bytes_fetched"].(float64) <= 0 {
				t.Errorf("healthy line bytes_fetched = %v", ln["bytes_fetched"])
			}
			if ln["field"] != "Jx" {
				t.Errorf("healthy line field = %v", ln["field"])
			}
		}
	}
}

// TestAccessLogBreakerOutcome pins the breaker failure taxonomy in the
// log: an upstream fault line, then a breaker_open line once the circuit
// trips.
func TestAccessLogBreakerOutcome(t *testing.T) {
	c := buildCompressed(t, "Jx")
	flaky := &flakySource{inner: c}
	flaky.failing.Store(true)
	logBuf := &logBuffer{}
	_, ts, _ := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 5 * time.Second,
		Breaker:        resilience.BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour},
		AccessLog:      logBuf,
	}, &c.Header, flaky)

	// The outage yields 502/upstream until enough failures trip the circuit
	// (a single refine can record several failed plane reads), after which
	// the tier fast-fails with 503/breaker_open.
	requests := 0
	sawUpstream := false
	for ; requests < 10; requests++ {
		res := doTraced(t, ts, "/refine?field=Jx&rel=1e-3")
		if res.status == 502 && res.detail == "upstream" {
			sawUpstream = true
			continue
		}
		if res.status == 503 && res.detail == "breaker_open" {
			requests++
			break
		}
		t.Fatalf("outage refine %d: status %d detail %q", requests, res.status, res.detail)
	}
	if !sawUpstream {
		t.Fatal("breaker tripped before any upstream failure surfaced")
	}
	lines := logBuf.lines(t)
	if len(lines) != requests {
		t.Fatalf("%d lines for %d requests", len(lines), requests)
	}
	for i, ln := range lines[:len(lines)-1] {
		if ln["outcome"] != "upstream" {
			t.Fatalf("line %d outcome = %v, want upstream", i, ln["outcome"])
		}
	}
	if last := lines[len(lines)-1]; last["outcome"] != "breaker_open" || last["status"].(float64) != 503 {
		t.Fatalf("final line = %+v, want 503 breaker_open", last)
	}
}

// TestTraceparentPropagationAndTraceStore round-trips a caller-supplied
// traceparent: the response continues the caller's trace, and the span
// tree retained at /debug/obs/trace shows the serving stages nested inside
// the request, each stage span inside the request's interval.
func TestTraceparentPropagationAndTraceStore(t *testing.T) {
	srv, o := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, err := http.NewRequest("GET", ts.URL+"/refine?field=Jx&rel=1e-4", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("refine status %d", resp.StatusCode)
	}
	tc, ok := obs.ParseTraceParent(resp.Header.Get("traceparent"))
	if !ok {
		t.Fatalf("bad response traceparent %q", resp.Header.Get("traceparent"))
	}
	if tc.TraceID != callerTrace {
		t.Fatalf("response trace id %s, want caller's %s", tc.TraceID, callerTrace)
	}
	if tc.SpanID == "00f067aa0ba902b7" {
		t.Fatal("response span id should be the server's root span, not the caller's")
	}

	rec, found := o.Requests.Get(callerTrace)
	if !found {
		t.Fatal("request trace not retained")
	}
	if rec.Status != 200 || rec.Name != "refine" {
		t.Fatalf("retained record %+v", rec)
	}
	names := map[string]bool{}
	var rootID, rootStart, rootEnd int64
	for _, sp := range rec.Spans {
		names[sp.Name] = true
		if sp.Name == "http.refine" {
			rootID, rootStart, rootEnd = sp.ID, sp.StartNs, sp.StartNs+sp.DurNs
		}
	}
	for _, wantSpan := range []string{"http.refine", "serve.session", "session.refine", "session.fetch_level", "servecache.get", "session.decode", "session.recompose", "serve.checksum"} {
		if !names[wantSpan] {
			t.Errorf("span tree missing %q (have %v)", wantSpan, names)
		}
	}
	// The stages the handler runs itself hang directly off the request.
	for _, sp := range rec.Spans {
		if (sp.Name == "serve.session" || sp.Name == "serve.checksum") && sp.Parent != rootID {
			t.Errorf("span %s has parent %d, want the root %d", sp.Name, sp.Parent, rootID)
		}
	}
	for _, sp := range rec.Spans {
		if sp.TraceID != callerTrace {
			t.Errorf("span %s trace id %q", sp.Name, sp.TraceID)
		}
		if sp.StartNs < rootStart || sp.StartNs+sp.DurNs > rootEnd {
			t.Errorf("span %s escapes the request interval", sp.Name)
		}
		if sp.DurNs > rec.DurNs {
			t.Errorf("span %s (%dns) longer than the request (%dns)", sp.Name, sp.DurNs, rec.DurNs)
		}
	}

	// The span tree is served over HTTP, and the slowest table knows the
	// request.
	var served obs.RequestRecord
	getJSON(t, ts, "/debug/obs/trace?id="+callerTrace, &served)
	if served.TraceID != callerTrace || len(served.Spans) != len(rec.Spans) {
		t.Fatalf("served record %s/%d spans, want %s/%d", served.TraceID, len(served.Spans), callerTrace, len(rec.Spans))
	}
	var snap obs.DebugSnapshot
	getJSON(t, ts, "/debug/obs", &snap)
	found = false
	for _, s := range snap.Slowest {
		if s.TraceID == callerTrace {
			found = true
		}
	}
	if !found {
		t.Fatalf("slowest table misses the request: %+v", snap.Slowest)
	}
}

// TestRefineSpansShareRequestTrace: every span one /refine records — the
// planner's and each level's decode included — belongs to that request's
// trace, nested under its session spans, not a root of its own.
func TestRefineSpansShareRequestTrace(t *testing.T) {
	srv, o := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := map[int64]bool{}
	for _, sp := range o.Trace.Timeline() {
		before[sp.ID] = true
	}
	res := doTraced(t, ts, "/refine?field=Jx&rel=1e-4")
	if res.status != 200 {
		t.Fatalf("refine status %d", res.status)
	}
	var spans []obs.SpanRecord
	waitForCond(t, "the request's root span", func() bool {
		spans = spans[:0]
		root := false
		for _, sp := range o.Trace.Timeline() {
			if !before[sp.ID] {
				spans = append(spans, sp)
				root = root || sp.Name == "http.refine"
			}
		}
		return root
	})
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
		if sp.TraceID != res.traceID {
			t.Errorf("span %s (parent %d) has trace id %q, want the request's %s", sp.Name, sp.Parent, sp.TraceID, res.traceID)
		}
	}
	if names["retrieval.plan"] != 1 || names["bitplane.decode"] == 0 {
		t.Fatalf("refine recorded %v, want one retrieval.plan and a bitplane.decode per level", names)
	}
}

// TestMetricsPromFormat asserts /metrics?format=prom emits Prometheus text
// with the serving counters, histogram, a trace exemplar, and the runtime
// health gauges, while the default /metrics stays JSON.
func TestMetricsPromFormat(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res := doTraced(t, ts, "/refine?field=Jx&rel=1e-4")
	if res.status != 200 {
		t.Fatalf("refine status %d", res.status)
	}
	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prom content type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE serve_refines counter\nserve_refines 1\n",
		"# TYPE serve_refine_seconds histogram\n",
		`serve_refine_seconds_bucket{le="+Inf"} 1`,
		"serve_refine_seconds_count 1",
		fmt.Sprintf(`# {trace_id=%q}`, res.traceID),
		"# TYPE runtime_goroutines gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prom output missing %q", want)
		}
	}
	// The default /metrics stays JSON.
	var js map[string]any
	getJSON(t, ts, "/metrics", &js)
	if _, present := js["counters"]; !present {
		t.Fatal("JSON /metrics lost its shape")
	}
}

// TestSLOCounters pins the refine SLO accounting: successes within the
// objective count good, anything else only total, and a disabled objective
// counts nothing.
func TestSLOCounters(t *testing.T) {
	c := buildCompressed(t, "Jx")
	_, ts, o := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 5 * time.Second,
		SLOLatency:     time.Minute,
	}, &c.Header, c)
	if res := doTraced(t, ts, "/refine?field=Jx&rel=1e-3"); res.status != 200 {
		t.Fatalf("refine status %d", res.status)
	}
	if res := doTraced(t, ts, "/refine?field=Nope&rel=1e-3"); res.status != 404 {
		t.Fatalf("bad-field refine status %d", res.status)
	}
	snap := o.Metrics.Snapshot()
	if snap.Counters["serve.slo_total"] != 2 || snap.Counters["serve.slo_good"] != 1 {
		t.Fatalf("slo good/total = %d/%d, want 1/2",
			snap.Counters["serve.slo_good"], snap.Counters["serve.slo_total"])
	}

	// An unreachable objective: success that still misses the target.
	c2 := buildCompressed(t, "Ex")
	_, ts2, o2 := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 5 * time.Second,
		SLOLatency:     time.Nanosecond,
	}, &c2.Header, c2)
	if res := doTraced(t, ts2, "/refine?field=Ex&rel=1e-3"); res.status != 200 {
		t.Fatalf("refine status %d", res.status)
	}
	snap = o2.Metrics.Snapshot()
	if snap.Counters["serve.slo_total"] != 1 || snap.Counters["serve.slo_good"] != 0 {
		t.Fatalf("slo good/total = %d/%d, want 0/1",
			snap.Counters["serve.slo_good"], snap.Counters["serve.slo_total"])
	}

	// A zero objective disables the accounting entirely.
	c3 := buildCompressed(t, "Bx")
	_, ts3, o3 := newChaosServer(t, Config{
		CacheBytes:     64 << 20,
		RequestTimeout: 5 * time.Second,
	}, &c3.Header, c3)
	if res := doTraced(t, ts3, "/refine?field=Bx&rel=1e-3"); res.status != 200 {
		t.Fatalf("refine status %d", res.status)
	}
	if n := o3.Metrics.Snapshot().Counters["serve.slo_total"]; n != 0 {
		t.Fatalf("disabled SLO counted %d requests", n)
	}
}
