package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/shard"
)

// twoNodeMap addresses two node front ends with full replication.
func twoNodeMap(t *testing.T, n0, n1 *httptest.Server) *shard.Map {
	t.Helper()
	m, err := shard.ParseMap([]byte(fmt.Sprintf(
		`{"nodes": [{"name": "n0", "url": %q}, {"name": "n1", "url": %q}], "replication": 2}`, n0.URL, n1.URL)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// wireServer builds a server under cfg (Obs filled in), lets build wire it,
// and fronts it with httptest.
func wireServer(t *testing.T, cfg Config, build func(*Server) error) *httptest.Server {
	t.Helper()
	cfg.Obs = obs.New()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if err := build(srv); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestBreakerOpenRetryAfterOnEveryWiring trips the breaker guarding the
// refined field's planes — the field's own on a standalone server and a
// node, the shard's node breakers on a router — and requires the 503
// breaker_open to carry the configured cooldown as Retry-After: the
// handler asks the field, never the wiring. The local rows inject their
// outage through addLocal (the chain AddStore and AddRaw build), because a
// real file cannot be made to fail transiently.
func TestBreakerOpenRetryAfterOnEveryWiring(t *testing.T) {
	const cooldown = time.Hour
	c := buildCompressed(t, "Jx")
	wire := func(build func(*Server) error) *httptest.Server {
		return wireServer(t, Config{
			CacheBytes:     1,
			RequestTimeout: 10 * time.Second,
			Breaker:        resilience.BreakerConfig{FailureThreshold: 3, Cooldown: cooldown},
		}, build)
	}
	local := func(mount bool, src *flakySource) func(*Server) error {
		return func(s *Server) error {
			if mount {
				s.MountPlanes()
			}
			return s.addLocal(&c.Header, src, nil)
		}
	}
	standaloneSrc, nodeSrc := &flakySource{inner: c}, &flakySource{inner: c}
	n0, n1 := wire(local(true, &flakySource{inner: c})), wire(local(true, &flakySource{inner: c}))
	for _, w := range []struct {
		name   string
		ts     *httptest.Server
		outage func()
	}{
		{"standalone", wire(local(false, standaloneSrc)), func() { standaloneSrc.failing.Store(true) }},
		{"node", wire(local(true, nodeSrc)), func() { nodeSrc.failing.Store(true) }},
		{"router", wire(func(s *Server) error { return s.AddShard(context.Background(), twoNodeMap(t, n0, n1)) }),
			func() { n0.Close(); n1.Close() }},
	} {
		t.Run(w.name, func(t *testing.T) {
			if res := doRefine(t, w.ts, "field=Jx&rel=1e-4"); res.status != http.StatusOK {
				t.Fatalf("healthy refine: status %d (detail %q)", res.status, res.detail)
			}
			w.outage()
			var resp *http.Response
			for try := 0; ; try++ {
				var err error
				if resp, err = http.Get(w.ts.URL + "/refine?field=Jx&rel=1e-4"); err != nil {
					t.Fatal(err)
				}
				var e errorResponse
				json.NewDecoder(resp.Body).Decode(&e)
				resp.Body.Close()
				if resp.StatusCode == http.StatusServiceUnavailable && e.Detail == "breaker_open" {
					break
				}
				if resp.StatusCode != http.StatusBadGateway || try == 10 {
					t.Fatalf("refine %d into the outage: status %d, want 502s until the breaker opens", try, resp.StatusCode)
				}
			}
			secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if full := int(cooldown / time.Second); err != nil || secs > full || secs < full-30 {
				t.Fatalf("breaker_open Retry-After = %q, want the %v cooldown remaining", resp.Header.Get("Retry-After"), cooldown)
			}
		})
	}
}
