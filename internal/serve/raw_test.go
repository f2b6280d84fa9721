package serve

import (
	"net/http/httptest"
	"path/filepath"
	"testing"

	"pmgard/internal/fieldio"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
)

// TestServeRawProbesBackend pins the -raw startup path: a smooth polynomial
// field must be probed, refactored under the interp backend (the probe's
// deterministic winner for it), and served correctly — /open reports the
// selected backend and /refine reaches tolerance through it.
func TestServeRawProbesBackend(t *testing.T) {
	n := 33
	f := grid.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := float64(i) / float64(n-1)
			y := float64(j) / float64(n-1)
			f.Data()[i*n+j] = 1 + x + y + x*y + 0.5*x*x - 0.25*y*y
		}
	}
	path := filepath.Join(t.TempDir(), "smooth.field")
	if err := fieldio.Write(path, fieldio.Meta{Field: "smooth", Dims: []int{n, n}}, f); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{CacheBytes: 64 << 20, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	backend, err := srv.AddRaw(path)
	if err != nil {
		t.Fatalf("addRaw: %v", err)
	}
	if backend != "interp" {
		t.Fatalf("probe selected %q for the polynomial field, want interp", backend)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var open openResponse
	getJSON(t, ts, "/open?field=smooth", &open)
	if open.Backend != "interp" {
		t.Fatalf("/open backend = %q, want interp", open.Backend)
	}
	var refine refineResponse
	getJSON(t, ts, "/refine?field=smooth&rel=1e-5", &refine)
	if refine.Degraded {
		t.Fatal("raw-served refine reported degradation")
	}
	if refine.BytesFetched <= 0 {
		t.Fatalf("refine fetched %d bytes", refine.BytesFetched)
	}
}
