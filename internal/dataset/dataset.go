// Package dataset manages collections of compressed fields — the unit a
// simulation campaign actually produces: several variables dumped over many
// timesteps. A dataset is a directory of segment-store files plus a JSON
// catalog; readers open it once and progressively retrieve any (field,
// timestep) at any tolerance, optionally under a trained D-MGARD or
// E-MGARD model, with I/O accounted across the whole collection.
package dataset

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/features"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// catalogEntry records one stored field dump.
type catalogEntry struct {
	Field    string `json:"field"`
	Timestep int    `json:"timestep"`
	File     string `json:"file"`
	Bytes    int64  `json:"bytes"`
}

// catalog is the dataset manifest.
type catalog struct {
	Version int            `json:"version"`
	Name    string         `json:"name"`
	Entries []catalogEntry `json:"entries"`
}

const catalogFile = "catalog.json"

// Writer builds a dataset directory.
type Writer struct {
	dir string
	cat catalog
	cfg core.Config
}

// Create starts a new dataset at dir. The directory is created if needed;
// an existing catalog is an error (datasets are immutable once finalized).
func Create(dir, name string, cfg core.Config) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, catalogFile)); err == nil {
		return nil, fmt.Errorf("dataset: %s already contains a catalog", dir)
	}
	return &Writer{dir: dir, cat: catalog{Version: 1, Name: name}, cfg: cfg}, nil
}

// Add compresses and stores one field dump.
func (w *Writer) Add(field *grid.Tensor, name string, timestep int) error {
	for _, e := range w.cat.Entries {
		if e.Field == name && e.Timestep == timestep {
			return fmt.Errorf("dataset: %s@%d already stored", name, timestep)
		}
	}
	c, err := core.Compress(field, w.cfg, name, timestep)
	if err != nil {
		return err
	}
	file := fmt.Sprintf("%s_t%06d.pmgd", name, timestep)
	if err := c.WriteFile(filepath.Join(w.dir, file)); err != nil {
		return err
	}
	w.cat.Entries = append(w.cat.Entries, catalogEntry{
		Field:    name,
		Timestep: timestep,
		File:     file,
		Bytes:    c.Header.TotalBytes(),
	})
	return nil
}

// Close commits the catalog by temp file + rename, so a crash mid-write
// leaves no catalog at all — a dataset Create can start over in — rather
// than a truncated one Open cannot parse and Create refuses to replace.
func (w *Writer) Close() error {
	sort.Slice(w.cat.Entries, func(i, j int) bool {
		a, b := w.cat.Entries[i], w.cat.Entries[j]
		if a.Field != b.Field {
			return a.Field < b.Field
		}
		return a.Timestep < b.Timestep
	})
	blob, err := json.MarshalIndent(&w.cat, "", "  ")
	if err != nil {
		return fmt.Errorf("dataset: marshal catalog: %w", err)
	}
	tmp := filepath.Join(w.dir, catalogFile+".tmp")
	err = os.WriteFile(tmp, blob, 0o644)
	if err == nil {
		err = os.Rename(tmp, filepath.Join(w.dir, catalogFile))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dataset: write catalog: %w", err)
	}
	return nil
}

// Reader provides progressive retrieval over a dataset with optional model
// attachment and collection-wide I/O accounting.
type Reader struct {
	dir string
	cat catalog

	mu sync.Mutex
	// stores holds each opened entry's parsed header and store, by file.
	stores map[string]openedEntry
	dModel *dmgard.Model
	eModel *emgard.Model
	// featureCache caches extracted features per (field, timestep) after a
	// D-MGARD retrieval reconstructs the field once.
	featureCache map[string][]float64
}

// openedEntry is one opened catalog entry; the header is shared read-only.
type openedEntry struct {
	h  *core.Header
	st *storage.Store
}

// openFile opens one entry's artifact; the tests count its calls.
var openFile = core.OpenFile

// Open opens a dataset directory. A catalog entry whose file is not a
// bare file name (core.BareFileName) is refused, so no entry can open a
// store outside the directory.
func Open(dir string) (*Reader, error) {
	blob, err := os.ReadFile(filepath.Join(dir, catalogFile))
	if err != nil {
		return nil, fmt.Errorf("dataset: read catalog: %w", err)
	}
	var cat catalog
	if err := json.Unmarshal(blob, &cat); err != nil {
		return nil, fmt.Errorf("dataset: parse catalog: %w", err)
	}
	if cat.Version != 1 {
		return nil, fmt.Errorf("dataset: unsupported catalog version %d", cat.Version)
	}
	for _, e := range cat.Entries {
		if !core.BareFileName(e.File) {
			return nil, fmt.Errorf("dataset: catalog entry %s@%d file %q: must be a bare file name inside the directory",
				e.Field, e.Timestep, e.File)
		}
	}
	return &Reader{
		dir:          dir,
		cat:          cat,
		stores:       make(map[string]openedEntry),
		featureCache: make(map[string][]float64),
	}, nil
}

// Name returns the dataset name.
func (r *Reader) Name() string { return r.cat.Name }

// Fields returns the distinct field names, sorted.
func (r *Reader) Fields() []string {
	seen := map[string]bool{}
	var out []string
	for _, e := range r.cat.Entries {
		if !seen[e.Field] {
			seen[e.Field] = true
			out = append(out, e.Field)
		}
	}
	sort.Strings(out)
	return out
}

// Timesteps returns the stored timesteps of a field, sorted.
func (r *Reader) Timesteps(field string) []int {
	var out []int
	for _, e := range r.cat.Entries {
		if e.Field == field {
			out = append(out, e.Timestep)
		}
	}
	sort.Ints(out)
	return out
}

// StoredBytes returns the total stored payload across the collection.
func (r *Reader) StoredBytes() int64 {
	var total int64
	for _, e := range r.cat.Entries {
		total += e.Bytes
	}
	return total
}

// AttachDMGARD sets the D-MGARD model used by RetrieveDMGARD.
func (r *Reader) AttachDMGARD(m *dmgard.Model) {
	r.mu.Lock()
	r.dModel = m
	r.mu.Unlock()
}

// AttachEMGARD sets the E-MGARD model used by RetrieveEMGARD.
func (r *Reader) AttachEMGARD(m *emgard.Model) {
	r.mu.Lock()
	r.eModel = m
	r.mu.Unlock()
}

// open returns the header and store of one entry, opening lazily: each
// entry is parsed once and holds one handle, also when several goroutines
// miss on it together — the first to finish is kept, the others close theirs.
func (r *Reader) open(field string, timestep int) (*core.Header, *storage.Store, error) {
	var entry *catalogEntry
	for i := range r.cat.Entries {
		if r.cat.Entries[i].Field == field && r.cat.Entries[i].Timestep == timestep {
			entry = &r.cat.Entries[i]
			break
		}
	}
	if entry == nil {
		return nil, nil, fmt.Errorf("dataset: no entry for %s@%d", field, timestep)
	}
	r.mu.Lock()
	e, ok := r.stores[entry.File]
	r.mu.Unlock()
	if ok {
		return e.h, e.st, nil
	}
	h, st, err := openFile(filepath.Join(r.dir, entry.File))
	if err != nil {
		return nil, nil, err
	}
	r.mu.Lock()
	if e, ok = r.stores[entry.File]; !ok {
		e = openedEntry{h: h, st: st}
		r.stores[entry.File] = e
	}
	r.mu.Unlock()
	if e.st != st {
		st.Close()
	}
	return e.h, e.st, nil
}

// Retrieve fetches (field, timestep) at a relative error bound under the
// header's exact per-level bound (core.Header.Bound).
func (r *Reader) Retrieve(field string, timestep int, relBound float64) (*grid.Tensor, retrieval.Plan, error) {
	h, st, err := r.open(field, timestep)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	tol := h.AbsTolerance(relBound)
	if tol <= 0 {
		return nil, retrieval.Plan{}, fmt.Errorf("dataset: non-positive tolerance for %s@%d", field, timestep)
	}
	return core.RetrieveTolerance(context.Background(), h, st, h.Bound(), tol, core.RetrieveOptions{})
}

// RetrieveEMGARD fetches under the attached E-MGARD model's learned
// per-level error constants.
func (r *Reader) RetrieveEMGARD(field string, timestep int, relBound float64) (*grid.Tensor, retrieval.Plan, error) {
	r.mu.Lock()
	m := r.eModel
	r.mu.Unlock()
	if m == nil {
		return nil, retrieval.Plan{}, fmt.Errorf("dataset: no E-MGARD model attached")
	}
	h, st, err := r.open(field, timestep)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	cs, err := m.Constants(h.LevelPools)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	est := retrieval.PerLevel(h.LevelInfos(), cs)
	tol := h.AbsTolerance(relBound)
	if tol <= 0 {
		return nil, retrieval.Plan{}, fmt.Errorf("dataset: non-positive tolerance for %s@%d", field, timestep)
	}
	return core.RetrieveTolerance(context.Background(), h, st, est, tol, core.RetrieveOptions{})
}

// RetrieveDMGARD fetches under the attached D-MGARD model's plane-count
// prediction. The model needs the field's statistical features; they are
// computed from a one-time coarse reconstruction and cached (in production
// they would be recorded at compression time alongside the header).
func (r *Reader) RetrieveDMGARD(field string, timestep int, relBound float64) (*grid.Tensor, retrieval.Plan, error) {
	r.mu.Lock()
	m := r.dModel
	r.mu.Unlock()
	if m == nil {
		return nil, retrieval.Plan{}, fmt.Errorf("dataset: no D-MGARD model attached")
	}
	h, st, err := r.open(field, timestep)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	tol := h.AbsTolerance(relBound)
	if tol <= 0 {
		return nil, retrieval.Plan{}, fmt.Errorf("dataset: non-positive tolerance for %s@%d", field, timestep)
	}
	feat, err := r.fieldFeatures(h, st, field, timestep)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	planes, err := m.Predict(feat, relBound)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	return core.RetrievePlanes(context.Background(), h, st, planes, core.RetrieveOptions{})
}

// fieldFeatures returns cached features or derives them from a one-time
// full-precision reconstruction.
func (r *Reader) fieldFeatures(h *core.Header, st *storage.Store, field string, timestep int) ([]float64, error) {
	key := fmt.Sprintf("%s@%d", field, timestep)
	r.mu.Lock()
	feat, ok := r.featureCache[key]
	r.mu.Unlock()
	if ok {
		return feat, nil
	}
	all := make([]int, len(h.Levels))
	for l := range all {
		all[l] = h.Planes
	}
	rec, _, err := core.RetrievePlanes(context.Background(), h, st, all, core.RetrieveOptions{})
	if err != nil {
		return nil, err
	}
	feat = dmgard.CombineFeatures(features.Extract(rec, timestep), h)
	r.mu.Lock()
	r.featureCache[key] = feat
	r.mu.Unlock()
	return feat, nil
}

// BytesRead returns payload bytes fetched across all opened stores.
func (r *Reader) BytesRead() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, e := range r.stores {
		total += e.st.BytesRead()
	}
	return total
}

// Close releases all opened stores.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, e := range r.stores {
		if err := e.st.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.stores = make(map[string]openedEntry)
	return first
}

// Series is one timestep of a time-series retrieval.
type Series struct {
	// Timestep is the simulation output step.
	Timestep int
	// Field is the reconstruction at that step.
	Field *grid.Tensor
	// Bytes is the retrieval cost of this step.
	Bytes int64
}

// RetrieveSeries fetches a field over the timestep range [t0, t1) at a
// relative error bound under the header's exact bound — the time-evolution
// query that dominates post-hoc analysis. Timesteps not present in the
// catalog are skipped; the result is ordered by timestep.
func (r *Reader) RetrieveSeries(field string, t0, t1 int, relBound float64) ([]Series, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("dataset: empty timestep range [%d,%d)", t0, t1)
	}
	var out []Series
	for _, ts := range r.Timesteps(field) {
		if ts < t0 || ts >= t1 {
			continue
		}
		rec, plan, err := r.Retrieve(field, ts, relBound)
		if err != nil {
			return nil, fmt.Errorf("dataset: series %s@%d: %w", field, ts, err)
		}
		out = append(out, Series{Timestep: ts, Field: rec, Bytes: plan.Bytes})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataset: no %s timesteps in [%d,%d)", field, t0, t1)
	}
	return out, nil
}
