package dataset

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

func buildDataset(t *testing.T) (string, map[string]*grid.Tensor) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ds")
	w, err := Create(dir, "warpx-run", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := warpx.DefaultConfig(9, 9, 9)
	fields := make(map[string]*grid.Tensor)
	for _, name := range []string{"Jx", "Ex"} {
		for ts := 0; ts < 3; ts++ {
			f, err := cfg.Field(name, ts)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Add(f, name, ts); err != nil {
				t.Fatal(err)
			}
			fields[key(name, ts)] = f
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, fields
}

func key(name string, ts int) string { return name + "@" + string(rune('0'+ts)) }

func TestDatasetCatalog(t *testing.T) {
	dir, _ := buildDataset(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Name() != "warpx-run" {
		t.Fatalf("Name = %q", r.Name())
	}
	if got := r.Fields(); len(got) != 2 || got[0] != "Ex" || got[1] != "Jx" {
		t.Fatalf("Fields = %v", got)
	}
	if got := r.Timesteps("Jx"); len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Fatalf("Timesteps = %v", got)
	}
	if r.StoredBytes() <= 0 {
		t.Fatal("StoredBytes not recorded")
	}
}

func TestDatasetRetrieveWithinTolerance(t *testing.T) {
	dir, fields := buildDataset(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	orig := fields[key("Jx", 1)]
	rec, plan, err := r.Retrieve("Jx", 1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	tol := 1e-4 * orig.Range()
	if achieved := grid.MaxAbsDiff(orig, rec); achieved > tol {
		t.Fatalf("achieved %g > tol %g", achieved, tol)
	}
	if plan.Bytes <= 0 || r.BytesRead() < plan.Bytes {
		t.Fatalf("accounting: plan %d, dataset %d", plan.Bytes, r.BytesRead())
	}
}

func TestDatasetMissingEntry(t *testing.T) {
	dir, _ := buildDataset(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Retrieve("Bz", 0, 1e-3); err == nil {
		t.Fatal("missing field accepted")
	}
	if _, _, err := r.Retrieve("Jx", 99, 1e-3); err == nil {
		t.Fatal("missing timestep accepted")
	}
}

func TestDatasetModelsRequireAttachment(t *testing.T) {
	dir, _ := buildDataset(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.RetrieveDMGARD("Jx", 0, 1e-3); err == nil {
		t.Fatal("D-MGARD retrieval without model accepted")
	}
	if _, _, err := r.RetrieveEMGARD("Jx", 0, 1e-3); err == nil {
		t.Fatal("E-MGARD retrieval without model accepted")
	}
}

func TestDatasetModelRetrieval(t *testing.T) {
	dir, fields := buildDataset(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Train tiny models from the same data.
	bounds := []float64{1e-5, 1e-3, 1e-1}
	cfg := core.DefaultConfig()
	var drecs []dmgard.Record
	var esamps []emgard.Sample
	for ts := 0; ts < 3; ts++ {
		f := fields[key("Jx", ts)]
		c, sweep, err := core.TheorySweep(f, cfg, "Jx", ts, bounds)
		if err != nil {
			t.Fatal(err)
		}
		drecs = append(drecs, dmgard.Records(f, &c.Header, sweep)...)
		esamps = append(esamps, emgard.Samples(&c.Header, sweep)...)
	}
	dm, err := dmgard.Train(drecs, cfg.Planes, dmgard.Config{
		Hidden: []int{8}, LeakyAlpha: 0.01, Epochs: 10, BatchSize: 4, LR: 1e-3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	em, err := emgard.Train(esamps, emgard.Config{
		Hidden: []int{8}, Epochs: 10, BatchSize: 4, LR: 1e-3, Seed: 1, Margin: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.AttachDMGARD(dm)
	r.AttachEMGARD(em)

	if _, plan, err := r.RetrieveDMGARD("Jx", 2, 1e-3); err != nil {
		t.Fatal(err)
	} else if len(plan.Planes) != 5 {
		t.Fatalf("D-MGARD plan has %d levels", len(plan.Planes))
	}
	if _, plan, err := r.RetrieveEMGARD("Jx", 2, 1e-3); err != nil {
		t.Fatal(err)
	} else if plan.Bytes < 0 {
		t.Fatal("negative plan bytes")
	}
}

func TestDatasetRejectsDuplicatesAndReopens(t *testing.T) {
	dir, _ := buildDataset(t)
	// A second Create over the same directory must refuse.
	if _, err := Create(dir, "x", core.DefaultConfig()); err == nil {
		t.Fatal("Create over existing catalog accepted")
	}
	// Duplicate Add within one writer must refuse.
	dir2 := filepath.Join(t.TempDir(), "d2")
	w, err := Create(dir2, "x", core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f, _ := warpx.DefaultConfig(9, 9, 9).Field("Jx", 0)
	if err := w.Add(f, "Jx", 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(f, "Jx", 0); err == nil {
		t.Fatal("duplicate Add accepted")
	}
}

func TestOpenRejectsMissingCatalog(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("missing catalog accepted")
	}
}

func TestRetrieveSeries(t *testing.T) {
	dir, fields := buildDataset(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	series, err := r.RetrieveSeries("Jx", 0, 3, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("series has %d steps, want 3", len(series))
	}
	for i, s := range series {
		if s.Timestep != i {
			t.Fatalf("series out of order: %d at position %d", s.Timestep, i)
		}
		orig := fields[key("Jx", s.Timestep)]
		if grid.MaxAbsDiff(orig, s.Field) > 1e-3*orig.Range() {
			t.Fatalf("step %d violated tolerance", s.Timestep)
		}
		if s.Bytes <= 0 {
			t.Fatalf("step %d has no cost", s.Timestep)
		}
	}
	// Partial window.
	part, err := r.RetrieveSeries("Jx", 1, 2, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 1 || part[0].Timestep != 1 {
		t.Fatalf("partial window wrong: %+v", part)
	}
	// Empty windows fail loudly.
	if _, err := r.RetrieveSeries("Jx", 5, 9, 1e-3); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := r.RetrieveSeries("Jx", 2, 2, 1e-3); err == nil {
		t.Fatal("degenerate range accepted")
	}
}

// TestWriterCloseCommitsCatalogAtomically: a Close that cannot commit —
// the temp file unwritable, or the rename refused — returns the error and
// leaves neither a catalog.json nor a temp file behind, so the directory
// is still one Create can start over in; it used to truncate catalog.json
// in place, which Open cannot parse and Create refuses to replace.
func TestWriterCloseCommitsCatalogAtomically(t *testing.T) {
	for _, tc := range []struct {
		name    string
		blocked string // a directory planted where Close needs a file
	}{
		{"temp file unwritable", catalogFile + ".tmp"},
		{"rename refused", catalogFile},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ds")
			w, err := Create(dir, "run", core.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			// Non-empty, so a rename over it fails too.
			if err := os.MkdirAll(filepath.Join(dir, tc.blocked, "x"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err == nil {
				t.Fatal("Close committed through a blocked path")
			}
			if err := os.RemoveAll(filepath.Join(dir, tc.blocked)); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{catalogFile, catalogFile + ".tmp"} {
				if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
					t.Fatalf("a failed Close left %s behind (stat err %v)", name, err)
				}
			}
			w, err = Create(dir, "run", core.DefaultConfig())
			if err != nil {
				t.Fatalf("Create after a failed Close: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatalf("Open after the retried Close: %v", err)
			}
			r.Close()
		})
	}
}

// TestReaderOpensEachEntryOnce makes N goroutines miss on one entry at the
// same moment (the hook holds every open until all N have arrived): the
// reader must end up with one handle whose accounting covers every read,
// the N−1 losers closed, and later hits must not open or parse again.
func TestReaderOpensEachEntryOnce(t *testing.T) {
	dir, _ := buildDataset(t)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var (
		mu      sync.Mutex
		opened  []*storage.Store
		arrived sync.WaitGroup
	)
	arrived.Add(n)
	realOpen := openFile
	openFile = func(path string) (*core.Header, *storage.Store, error) {
		arrived.Done()
		arrived.Wait()
		h, st, err := realOpen(path)
		mu.Lock()
		opened = append(opened, st)
		mu.Unlock()
		return h, st, err
	}
	defer func() { openFile = realOpen }()

	plans := make([]retrieval.Plan, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, plans[g], errs[g] = r.Retrieve("Jx", 1, 1e-3)
		}(g)
	}
	wg.Wait()
	var want int64
	for g := range errs {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		want += plans[g].Bytes
	}
	if len(opened) != n {
		t.Fatalf("%d opens raced, want %d", len(opened), n)
	}
	if got := r.BytesRead(); got != want {
		t.Fatalf("reader accounts %d bytes of the %d its retrievals read: a store was orphaned", got, want)
	}
	h1, st1, err := r.open("Jx", 1)
	if err != nil {
		t.Fatal(err)
	}
	if h2, st2, _ := r.open("Jx", 1); h2 != h1 || st2 != st1 || len(opened) != n {
		t.Fatal("a hit re-opened or re-parsed the entry")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i, st := range opened {
		if _, err := st.ReadSegment(storage.SegmentID{}); err == nil {
			t.Fatalf("store %d of %d is still open after Close: leaked handle", i, n)
		}
	}
}
