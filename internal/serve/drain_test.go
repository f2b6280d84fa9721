package serve

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"pmgard/internal/leakcheck"
	"pmgard/internal/obs"
)

// TestGracefulDrain exercises the shutdown sequence end-to-end on a real
// listener: an in-flight refine completes with 200, requests arriving
// after drain begins get 503/draining, readiness flips before the listener
// closes, and store handles are released exactly once even when close is
// reached twice.
func TestGracefulDrain(t *testing.T) {
	base := leakcheck.Baseline()
	t.Cleanup(func() {
		http.DefaultClient.CloseIdleConnections()
		leakcheck.Check(t, base, 10*time.Second)
	})
	c := buildCompressed(t, "Jx")
	want := groundTruth(t, c, 1e-4)
	src := &stallSource{inner: c}
	o := obs.New()
	srv, err := New(Config{CacheBytes: 64 << 20, RequestTimeout: 30 * time.Second, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	var closes atomic.Int64
	if err := srv.addLocal(&c.Header, src, func() error { closes.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan struct{})
	go func() { srv.Serve(ln); close(serveDone) }()
	url := "http://" + ln.Addr().String()

	if resp, err := http.Get(url + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain /readyz: resp=%v err=%v, want 200", resp, err)
	} else {
		resp.Body.Close()
	}

	// Pin an in-flight refine against the stalled store, then begin the
	// drain window (what a load balancer sees between deregistration and
	// listener close).
	src.stall()
	inflight := make(chan refineResult, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(url + "/refine?field=Jx&rel=1e-4")
		if err != nil {
			inflight <- refineResult{status: -1}
			return
		}
		defer resp.Body.Close()
		res := refineResult{status: resp.StatusCode, elapsed: time.Since(start)}
		json.NewDecoder(resp.Body).Decode(&res.body)
		inflight <- res
	}()
	waitUntil(t, func() bool { return src.entered.Load() >= 1 })

	srv.beginDrain()
	resp, err := http.Get(url + "/refine?field=Jx&rel=1e-4")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Detail != "draining" {
		t.Fatalf("refine during drain: status %d detail %q, want 503 draining", resp.StatusCode, e.Detail)
	}
	if resp, err = http.Get(url + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz during drain: status %d, want 503", resp.StatusCode)
		}
	}

	// Release the store and complete the shutdown: the pinned refine must
	// finish with correct data before the server exits.
	drainDone := make(chan struct{})
	go func() { srv.Shutdown(10 * time.Second); close(drainDone) }()
	src.unstall()
	res := <-inflight
	if res.status != http.StatusOK || res.body.Checksum != want {
		t.Fatalf("in-flight refine across drain: status %d checksum %q, want 200 %s", res.status, res.body.Checksum, want)
	}
	select {
	case <-drainDone:
	case <-time.After(15 * time.Second):
		t.Fatal("Shutdown did not complete")
	}
	<-serveDone
	if n := closes.Load(); n != 1 {
		t.Fatalf("store close called %d times during drain, want 1", n)
	}
	srv.Close()
	if n := closes.Load(); n != 1 {
		t.Fatalf("store close called %d times after repeated close, want 1", n)
	}
}

// TestReadyzProbeFailure registers a field whose store cannot serve its
// first segment: /readyz must answer 503/probe_failed while /healthz stays
// 200 — liveness and readiness are distinct signals.
func TestReadyzProbeFailure(t *testing.T) {
	c := buildCompressed(t, "Jx")
	src := &flakySource{inner: c}
	src.failing.Store(true)
	o := obs.New()
	srv, err := New(Config{CacheBytes: 64 << 20, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if err := srv.addLocal(&c.Header, src, nil); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Detail != "probe_failed" {
		t.Fatalf("/readyz with failed probe: status %d detail %q, want 503 probe_failed", resp.StatusCode, e.Detail)
	}
	if resp, err = http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz with failed probe: resp=%v err=%v, want 200", resp, err)
	} else {
		resp.Body.Close()
	}
}

// TestRecoveryMiddleware injects a panicking route under the production
// middleware and checks it surfaces as a JSON 500 plus a serve.panics
// count instead of a torn connection.
func TestRecoveryMiddleware(t *testing.T) {
	o := obs.New()
	srv, err := New(Config{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(srv.withRecovery(mux))
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || decodeErr != nil {
		t.Fatalf("panicking handler: status %d decode %v, want JSON 500", resp.StatusCode, decodeErr)
	}
	if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
		t.Fatalf("panic response X-Content-Type-Options = %q, want nosniff", got)
	}
	if n := o.Metrics.Snapshot().Counters["serve.panics"]; n != 1 {
		t.Fatalf("serve.panics = %d, want 1", n)
	}
}

// TestErrorBodyShape checks the structured error contract on an ordinary
// failure: JSON body with error/status/detail fields and the nosniff
// header, not a bare text line.
func TestErrorBodyShape(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/refine?field=nope")
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	decodeErr := json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || decodeErr != nil {
		t.Fatalf("unknown field: status %d decode %v, want JSON 404", resp.StatusCode, decodeErr)
	}
	if e.Status != http.StatusNotFound || e.Error == "" {
		t.Fatalf("error body = %+v, want status 404 and a message", e)
	}
	if got := resp.Header.Get("X-Content-Type-Options"); got != "nosniff" {
		t.Fatalf("error X-Content-Type-Options = %q, want nosniff", got)
	}
}

// TestRequestDeadline covers the timeout= cap resolution: absent uses the
// server default, lower caps win, higher ones are clamped to the server
// limit, and malformed values are rejected.
func TestRequestDeadline(t *testing.T) {
	cases := []struct {
		query   string
		server  time.Duration
		want    time.Duration
		wantErr bool
	}{
		{"", 30 * time.Second, 30 * time.Second, false},
		{"timeout=500ms", 30 * time.Second, 500 * time.Millisecond, false},
		{"timeout=2m", 30 * time.Second, 30 * time.Second, false},
		{"timeout=500ms", 0, 500 * time.Millisecond, false},
		{"timeout=banana", 30 * time.Second, 0, true},
		{"timeout=-1s", 30 * time.Second, 0, true},
		{"timeout=0s", 30 * time.Second, 0, true},
	}
	for _, tc := range cases {
		r, err := http.NewRequest(http.MethodGet, "/refine?"+tc.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := requestDeadline(r, tc.server)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("requestDeadline(%q, %v) = %v, %v; want %v, err=%v", tc.query, tc.server, got, err, tc.want, tc.wantErr)
		}
	}
}
