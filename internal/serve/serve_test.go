package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// buildField compresses a synthetic WarpX field to a .pmgd file and returns
// its path.
func buildField(t *testing.T, name string) string {
	t.Helper()
	field, err := warpx.DefaultConfig(17, 17, 17).Field(name, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), name, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name+".pmgd")
	if err := c.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func newTestServer(t *testing.T) (*Server, *obs.Obs) {
	t.Helper()
	o := obs.New()
	srv, err := New(Config{CacheBytes: 64 << 20, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	if err := srv.AddStore(buildField(t, "Jx")); err != nil {
		t.Fatal(err)
	}
	return srv, o
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

func TestServeOpenAndFields(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var fields struct {
		Fields []string `json:"fields"`
	}
	getJSON(t, ts, "/fields", &fields)
	if len(fields.Fields) != 1 || fields.Fields[0] != "Jx" {
		t.Fatalf("fields = %v, want [Jx]", fields.Fields)
	}

	var open openResponse
	getJSON(t, ts, "/open?field=Jx", &open)
	if open.Field != "Jx" || open.Levels == 0 || open.Planes == 0 || open.TotalBytes <= 0 {
		t.Fatalf("open response incomplete: %+v", open)
	}

	// Single-field servers resolve the field implicitly.
	var open2 openResponse
	getJSON(t, ts, "/open", &open2)
	if open2.Field != "Jx" {
		t.Fatalf("implicit field = %q, want Jx", open2.Field)
	}
}

// TestServeConcurrentRefinesShareCache is the in-process mirror of the CI
// serve smoke: concurrent refinements of the same field must agree bit for
// bit and the second wave must be served from the shared cache.
func TestServeConcurrentRefinesShareCache(t *testing.T) {
	srv, o := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 4
	var wg sync.WaitGroup
	responses := make([]refineResponse, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/refine?field=Jx&rel=1e-4")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("refine %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if responses[i].Checksum != responses[0].Checksum {
			t.Fatalf("refine %d checksum %s != refine 0 checksum %s", i, responses[i].Checksum, responses[0].Checksum)
		}
		if responses[i].BytesFetched != responses[0].BytesFetched {
			t.Fatalf("refine %d BytesFetched %d != refine 0 %d", i, responses[i].BytesFetched, responses[0].BytesFetched)
		}
	}
	if responses[0].Degraded {
		t.Fatal("refine reported degraded on a healthy store")
	}

	snap := o.Metrics.Snapshot()
	if snap.Counters["servecache.hits"]+snap.Counters["servecache.coalesced"] == 0 {
		t.Fatalf("no cache sharing across %d identical refines: %v", n, snap.Counters)
	}
	if snap.Counters["serve.refines"] != n {
		t.Fatalf("serve.refines = %d, want %d", snap.Counters["serve.refines"], n)
	}

	// /metrics serves the same registry live.
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	getJSON(t, ts, "/metrics", &metrics)
	if metrics.Counters["serve.refines"] != n {
		t.Fatalf("/metrics serve.refines = %d, want %d", metrics.Counters["serve.refines"], n)
	}
}

// TestServeBothLayoutsThroughIn: -in takes a .pmgd file or a tiered
// directory. Both serve the same answer; only the store that has tiers
// mirrors storage.tier.* names, so a flat-only server's /metrics name set
// is what it always was.
func TestServeBothLayoutsThroughIn(t *testing.T) {
	c := buildCompressed(t, "Jx")
	hier, err := storage.DefaultHierarchy(len(c.Header.Levels))
	if err != nil {
		t.Fatal(err)
	}
	flat, tiered := filepath.Join(t.TempDir(), "jx.pmgd"), filepath.Join(t.TempDir(), "jx.tiered")
	if err := c.WriteFile(flat); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteTiered(tiered, hier); err != nil {
		t.Fatal(err)
	}
	var answers []refineResponse
	for _, path := range []string{flat, tiered} {
		o := obs.New()
		srv, err := New(Config{CacheBytes: 64 << 20, Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		if err := srv.AddStore(path); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		var res refineResponse
		getJSON(t, ts, "/refine?field=Jx&rel=1e-4", &res)
		res.ElapsedSeconds = 0
		answers = append(answers, res)
		var tierReads int64
		for name, v := range o.Metrics.Snapshot().Counters {
			if strings.HasPrefix(name, "storage.tier.") {
				if path == flat {
					t.Errorf("a store without tiers mirrored %s", name)
				}
				if strings.HasSuffix(name, ".requests") {
					tierReads += v
				}
			}
		}
		if planes := sessionPlanes(res.Planes); path == tiered && tierReads != planes {
			t.Errorf("storage.tier.*.requests sum to %d, the refine read %d planes", tierReads, planes)
		}
	}
	if fmt.Sprint(answers[0]) != fmt.Sprint(answers[1]) {
		t.Fatalf("the layouts answer differently:\n flat   %+v\n tiered %+v", answers[0], answers[1])
	}
	// A directory that is not a tiered store names the file it lacks.
	srv, _ := newTestServer(t)
	if err := srv.AddStore(t.TempDir()); err == nil || !strings.Contains(err.Error(), "manifest.json") {
		t.Fatalf("directory without a manifest: err = %v, want one naming manifest.json", err)
	}
}

// sessionPlanes sums a refine's per-level plane counts.
func sessionPlanes(planes []int) int64 {
	var n int64
	for _, b := range planes {
		n += int64(b)
	}
	return n
}

func TestServeErrors(t *testing.T) {
	srv, o := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{
		"/open?field=Nope",
		"/refine?field=Jx",          // no tolerance
		"/refine?field=Jx&rel=-1",   // bad tolerance
		"/refine?field=Jx&abs=zero", // unparsable
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatalf("GET %s succeeded, want error status", path)
		}
	}
	if o.Metrics.Snapshot().Counters["serve.errors"] != 4 {
		t.Fatalf("serve.errors = %d, want 4", o.Metrics.Snapshot().Counters["serve.errors"])
	}
}

// TestRefineReportsUnreachableTolerance asks for a tolerance below the
// quantization floor of a 17³ field: the reply fetches every plane, stays
// undegraded and says the tolerance was unreachable, in the body and on the
// access-log line, while the bound it reports still holds on the original.
// A reachable reply carries no unreachable key at all.
func TestRefineReportsUnreachableTolerance(t *testing.T) {
	field, err := warpx.DefaultConfig(17, 17, 17).Field("Jx", 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compress(field, core.DefaultConfig(), "Jx", 0)
	if err != nil {
		t.Fatal(err)
	}
	logBuf := &logBuffer{}
	_, ts, _ := newChaosServer(t, Config{CacheBytes: 64 << 20, AccessLog: logBuf}, &c.Header, c)

	raw := func(rel string) []byte {
		resp, err := http.Get(ts.URL + "/refine?field=Jx&rel=" + rel)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("rel %s: status %d, %v", rel, resp.StatusCode, err)
		}
		return body
	}
	if body := raw("1e-4"); strings.Contains(string(body), "unreachable") {
		t.Fatalf("a reachable reply names unreachable: %s", body)
	}
	var got refineResponse
	if err := json.Unmarshal(raw("1e-13"), &got); err != nil {
		t.Fatal(err)
	}
	if !got.Unreachable || got.Degraded || !(got.EstimatedError > got.Tolerance) {
		t.Fatalf("rel 1e-13: unreachable %v degraded %v, bound %g against tolerance %g",
			got.Unreachable, got.Degraded, got.EstimatedError, got.Tolerance)
	}
	for l, lm := range c.Header.Levels {
		if got.Planes[l] != len(lm.PlaneSizes) {
			t.Fatalf("level %d: %d of %d planes fetched", l, got.Planes[l], len(lm.PlaneSizes))
		}
	}
	rec, _, err := core.RetrievePlanes(context.Background(), &c.Header, c, got.Planes, core.RetrieveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum := tensorChecksum(rec); sum != got.Checksum {
		t.Fatalf("checksum %s, the reply's %s", sum, got.Checksum)
	}
	if achieved := grid.MaxAbsDiff(field, rec); achieved > got.EstimatedError {
		t.Fatalf("achieved L∞ %g above the reported bound %g", achieved, got.EstimatedError)
	}
	lines := logBuf.lines(t)
	if len(lines) != 2 || lines[0]["unreachable"] != false || lines[1]["unreachable"] != true {
		t.Fatalf("access log lines %v, want unreachable false then true", lines)
	}
}
