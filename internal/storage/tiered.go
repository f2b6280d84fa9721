package storage

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"pmgard/internal/obs"
)

// TieredWriter materializes the paper's storage-hierarchy placement: each
// coefficient level's segments go to the directory of its assigned tier
// (e.g. nvme/, ssd/, hdd/, tape/), one file per level holding its plane
// segments contiguously. A manifest at the root records the placement and
// the shared metadata blob.
//
// The writer streams: each payload is appended to its level's temporary
// file the moment WriteSegment returns, so the writer's memory footprint
// is per-plane bookkeeping (sizes and CRCs), never payload bytes. Open
// file handles are bounded by the level count. Close writes the manifest
// and renames everything into place atomically, exactly as before.
type TieredWriter struct {
	root      string
	hierarchy Hierarchy
	meta      []byte
	levels    map[int]*tieredLevel
	closed    bool
}

// tieredLevel is the streaming state of one level's tier file.
type tieredLevel struct {
	f     *os.File
	tmp   string
	final string
	sizes []int64
	crcs  []uint32
}

// tieredManifest is the JSON manifest of a tiered store.
//
// Version history:
//
//	1 — tier names, placement, meta, per-level plane sizes.
//	2 — adds Checksums, a per-plane CRC32 (IEEE) of each payload, so
//	    ranged reads detect on-disk corruption before the decoder sees
//	    it, mirroring the flat segment store's table CRCs.
//
// Readers accept both; writers emit version 2.
type tieredManifest struct {
	Version   int      `json:"version"`
	TierNames []string `json:"tier_names"`
	Placement []int    `json:"placement"`
	Meta      []byte   `json:"meta"`
	// Levels[l] lists the plane sizes of level l, in plane order.
	Levels [][]int64 `json:"levels"`
	// Checksums[l][k] is the CRC32 (IEEE) of plane k of level l. Absent
	// in version-1 manifests, in which case reads are unverified.
	Checksums [][]uint32 `json:"checksums,omitempty"`
}

// tieredManifestVersion is the manifest version written by TieredWriter.
const tieredManifestVersion = 2

// CreateTiered starts a tiered store rooted at dir with the given hierarchy
// and opaque metadata.
func CreateTiered(dir string, h Hierarchy, meta []byte) (*TieredWriter, error) {
	if err := h.Validate(); err != nil {
		return nil, err
	}
	if len(h.Placement) == 0 {
		return nil, fmt.Errorf("storage: tiered store needs a level placement")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", dir, err)
	}
	return &TieredWriter{
		root:      dir,
		hierarchy: h,
		meta:      meta,
		levels:    make(map[int]*tieredLevel),
	}, nil
}

// SetMeta replaces the opaque metadata blob before Close. Streaming callers
// use this: the compression header is only complete once every segment has
// been produced, long after the writer was created.
func (w *TieredWriter) SetMeta(meta []byte) error {
	if w.closed {
		return fmt.Errorf("storage: set meta on closed tiered writer")
	}
	w.meta = meta
	return nil
}

// level returns (opening if needed) the streaming state for level l.
func (w *TieredWriter) level(l int) (*tieredLevel, error) {
	if lv, ok := w.levels[l]; ok {
		return lv, nil
	}
	tierName := w.hierarchy.Tiers[w.hierarchy.Placement[l]].Name
	dir := filepath.Join(w.root, tierName)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create tier dir: %w", err)
	}
	final := filepath.Join(dir, fmt.Sprintf("level_%d.seg", l))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("storage: create level file: %w", err)
	}
	lv := &tieredLevel{f: f, tmp: tmp, final: final}
	w.levels[l] = lv
	return lv, nil
}

// WriteSegment appends one (level, plane) payload to its level's tier file.
// Planes of a level must be written in increasing plane order. The payload
// is on disk when WriteSegment returns; the caller may recycle the buffer.
func (w *TieredWriter) WriteSegment(id SegmentID, payload []byte) error {
	if w.closed {
		return fmt.Errorf("storage: write to closed tiered writer")
	}
	if id.Level < 0 || id.Level >= len(w.hierarchy.Placement) {
		return fmt.Errorf("storage: level %d outside placement of %d levels", id.Level, len(w.hierarchy.Placement))
	}
	lv, err := w.level(id.Level)
	if err != nil {
		return err
	}
	if last := len(lv.sizes) - 1; last >= 0 && last >= id.Plane {
		return fmt.Errorf("storage: level %d planes must be written in order (got %d after %d)",
			id.Level, id.Plane, last)
	}
	// Pad skipped plane ids with zero-length entries so plane k is always
	// entry k.
	for len(lv.sizes) < id.Plane {
		lv.sizes = append(lv.sizes, 0)
		lv.crcs = append(lv.crcs, 0)
	}
	if _, err := lv.f.Write(payload); err != nil {
		return fmt.Errorf("storage: write level %d: %w", id.Level, err)
	}
	lv.sizes = append(lv.sizes, int64(len(payload)))
	lv.crcs = append(lv.crcs, crc32.ChecksumIEEE(payload))
	return nil
}

// Abort discards the write: open level files are closed and their
// temporary files removed, and no manifest is written, so OpenTiered never
// sees the partial store. A no-op after Close or a prior Abort.
func (w *TieredWriter) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	for _, lv := range w.levels {
		lv.f.Close()
		os.Remove(lv.tmp)
	}
}

// Close writes the per-tier level files and the manifest. The write is
// atomic at the store level: every file lands under a temporary name
// first, and the manifest — which OpenTiered requires — is renamed into
// place last, after all level files. A Close that fails partway leaves no
// manifest.json (or the previous one, if overwriting), so OpenTiered
// never half-accepts the store; stray *.tmp files are cleaned up on the
// error path.
func (w *TieredWriter) Close() (err error) {
	if w.closed {
		return nil
	}
	w.closed = true
	man := tieredManifest{
		Version:   tieredManifestVersion,
		Placement: w.hierarchy.Placement,
		Meta:      w.meta,
		Levels:    make([][]int64, len(w.hierarchy.Placement)),
		Checksums: make([][]uint32, len(w.hierarchy.Placement)),
	}
	for _, t := range w.hierarchy.Tiers {
		man.TierNames = append(man.TierNames, t.Name)
	}
	// tmp → final renames, performed only once every file is written.
	var tmps, finals []string
	defer func() {
		if err != nil {
			for _, t := range tmps {
				os.Remove(t)
			}
			// Level files opened for streaming but not yet in tmps (their
			// Close failed, or a later level's setup did) are cleaned too.
			for _, lv := range w.levels {
				lv.f.Close()
				os.Remove(lv.tmp)
			}
		}
	}()
	for l := 0; l < len(w.hierarchy.Placement); l++ {
		// Levels that saw no segments still get (empty) tier files, exactly
		// as the buffering writer produced.
		lv, lerr := w.level(l)
		if lerr != nil {
			return lerr
		}
		if cerr := lv.f.Close(); cerr != nil {
			return cerr
		}
		tmps, finals = append(tmps, lv.tmp), append(finals, lv.final)
		man.Levels[l] = lv.sizes
		man.Checksums[l] = lv.crcs
	}
	blob, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("storage: marshal manifest: %w", err)
	}
	manFinal := filepath.Join(w.root, "manifest.json")
	manTmp := manFinal + ".tmp"
	if err := os.WriteFile(manTmp, blob, 0o644); err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	tmps, finals = append(tmps, manTmp), append(finals, manFinal)
	// Commit: level files first, manifest last.
	for i := range tmps {
		if err := os.Rename(tmps[i], finals[i]); err != nil {
			return fmt.Errorf("storage: commit %s: %w", finals[i], err)
		}
	}
	return nil
}

// TieredStore reads segments from a tiered store directory with per-tier
// I/O accounting. Level files open on first use and stay open until Close;
// a store never holds more handles than it has levels.
type TieredStore struct {
	root string
	man  tieredManifest
	// offsets[l][k] is the byte offset of plane k within level l's file.
	offsets [][]int64

	mu    sync.Mutex
	files map[int]*os.File

	tierBytes map[string]int64
	tierReqs  map[string]int64
	o         *obs.Obs
}

// Instrument mirrors the per-tier accounting into o's registry as
// storage.tier.<name>.bytes_read / .requests counters, folding in bytes
// already read. Call before sharing the store across goroutines; a nil or
// metrics-less o is a no-op.
func (s *TieredStore) Instrument(o *obs.Obs) {
	if o == nil || o.Metrics == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.o = o
	for tier, b := range s.tierBytes {
		o.Counter("storage.tier." + tier + ".bytes_read").Add(b)
	}
	for tier, n := range s.tierReqs {
		o.Counter("storage.tier." + tier + ".requests").Add(n)
	}
}

// OpenTiered opens a tiered store directory.
func OpenTiered(dir string) (*TieredStore, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("storage: read manifest: %w", err)
	}
	var man tieredManifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("storage: parse manifest: %w", err)
	}
	if man.Version != 1 && man.Version != tieredManifestVersion {
		return nil, fmt.Errorf("storage: unsupported tiered version %d", man.Version)
	}
	if len(man.Placement) != len(man.Levels) {
		return nil, fmt.Errorf("storage: manifest placement/levels mismatch")
	}
	if man.Version >= 2 {
		if len(man.Checksums) != len(man.Levels) {
			return nil, fmt.Errorf("storage: manifest has %d checksum levels for %d levels",
				len(man.Checksums), len(man.Levels))
		}
		for l := range man.Levels {
			if len(man.Checksums[l]) != len(man.Levels[l]) {
				return nil, fmt.Errorf("storage: manifest level %d has %d checksums for %d planes",
					l, len(man.Checksums[l]), len(man.Levels[l]))
			}
		}
	} else if man.Checksums != nil {
		return nil, fmt.Errorf("storage: version-1 manifest carries checksums")
	}
	st := &TieredStore{
		root:      dir,
		man:       man,
		files:     make(map[int]*os.File),
		tierBytes: make(map[string]int64),
		tierReqs:  make(map[string]int64),
	}
	st.offsets = make([][]int64, len(man.Levels))
	for l, sizes := range man.Levels {
		offs := make([]int64, len(sizes))
		var off int64
		for k, sz := range sizes {
			if sz < 0 || off > (1<<50)-sz {
				return nil, fmt.Errorf("storage: manifest level %d has implausible sizes", l)
			}
			offs[k] = off
			off += sz
		}
		st.offsets[l] = offs
	}
	return st, nil
}

// Meta returns the opaque metadata blob.
func (s *TieredStore) Meta() []byte { return s.man.Meta }

// TierOf returns the tier name holding level l.
func (s *TieredStore) TierOf(level int) (string, error) {
	if level < 0 || level >= len(s.man.Placement) {
		return "", fmt.Errorf("storage: level %d out of range", level)
	}
	ix := s.man.Placement[level]
	if ix < 0 || ix >= len(s.man.TierNames) {
		return "", fmt.Errorf("storage: corrupt placement for level %d", level)
	}
	return s.man.TierNames[ix], nil
}

// ReadSegment reads one plane segment with a ranged read from the level's
// tier file.
func (s *TieredStore) ReadSegment(id SegmentID) ([]byte, error) {
	if id.Level < 0 || id.Level >= len(s.man.Levels) {
		return nil, fmt.Errorf("storage: level %d out of range", id.Level)
	}
	sizes := s.man.Levels[id.Level]
	if id.Plane < 0 || id.Plane >= len(sizes) {
		return nil, fmt.Errorf("storage: plane %d out of range on level %d", id.Plane, id.Level)
	}
	tier, err := s.TierOf(id.Level)
	if err != nil {
		return nil, err
	}
	f, err := s.levelFile(id.Level, tier)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: stat level %d tier file: %w", id.Level, err)
	}
	if end := s.offsets[id.Level][id.Plane] + sizes[id.Plane]; end > fi.Size() {
		return nil, fmt.Errorf("storage: level %d plane %d extends past its tier file (truncated): %w",
			id.Level, id.Plane, ErrCorrupt)
	}
	buf := make([]byte, sizes[id.Plane])
	if len(buf) > 0 {
		// A short read is truncation, not a transient hiccup: the size check
		// above can pass and the file still shrink before ReadAt (or the
		// filesystem lie about Stat), and tolerating io.EOF with a partial n
		// would hand a zero-padded buffer to version-1 (checksum-less)
		// manifests, which accept it silently. Re-reading a truncated file
		// cannot recover the bytes, so the error classifies as permanent.
		n, err := f.ReadAt(buf, s.offsets[id.Level][id.Plane])
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("storage: read level %d plane %d: %w", id.Level, id.Plane, err)
		}
		if n != len(buf) {
			return nil, fmt.Errorf("storage: level %d plane %d short read (%d of %d bytes, truncated tier file): %w",
				id.Level, id.Plane, n, len(buf), ErrCorrupt)
		}
	}
	if s.man.Checksums != nil {
		if got, want := crc32.ChecksumIEEE(buf), s.man.Checksums[id.Level][id.Plane]; got != want {
			return nil, fmt.Errorf("storage: level %d plane %d checksum mismatch (got %08x, want %08x): %w",
				id.Level, id.Plane, got, want, ErrCorrupt)
		}
	}
	s.mu.Lock()
	s.tierBytes[tier] += int64(len(buf))
	s.tierReqs[tier]++
	o := s.o
	s.mu.Unlock()
	if o != nil {
		o.Counter("storage.tier." + tier + ".bytes_read").Add(int64(len(buf)))
		o.Counter("storage.tier." + tier + ".requests").Add(1)
	}
	return buf, nil
}

// Segment implements SegmentSource over ReadSegment. Tier reads are local
// file I/O that cannot be interrupted mid-syscall, so cancellation is
// checked at entry.
func (s *TieredStore) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.ReadSegment(SegmentID{Level: level, Plane: plane})
}

// levelFile returns level's open tier file, opening it on first use.
func (s *TieredStore) levelFile(level int, tier string) (*os.File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[level]; ok {
		return f, nil
	}
	path := filepath.Join(s.root, tier, fmt.Sprintf("level_%d.seg", level))
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	s.files[level] = f
	return f, nil
}

// TierBytes returns the payload bytes read from each tier so far.
func (s *TieredStore) TierBytes() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.tierBytes))
	for k, v := range s.tierBytes {
		out[k] = v
	}
	return out
}

// TierRequests returns the ranged-read counts per tier so far.
func (s *TieredStore) TierRequests() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.tierReqs))
	for k, v := range s.tierReqs {
		out[k] = v
	}
	return out
}

// Close releases the tier files.
func (s *TieredStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.files = make(map[int]*os.File)
	return first
}
