package storage

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
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
// file handles are bounded by the level count. It finishes like
// StreamWriter: Commit(meta) writes the manifest and renames everything
// into place atomically, Abort discards the write.
type TieredWriter struct {
	root      string
	hierarchy Hierarchy
	levels    map[int]*tieredLevel
	closed    bool
}

// tieredLevel is the streaming state of one level's tier file.
type tieredLevel struct {
	f     *os.File
	tmp   string // the level file's name until Commit strips the ".tmp"
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

// CreateTiered starts a tiered store rooted at dir with the given
// hierarchy.
func CreateTiered(dir string, h Hierarchy) (*TieredWriter, error) {
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
		levels:    make(map[int]*tieredLevel),
	}, nil
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
	tmp := filepath.Join(dir, fmt.Sprintf("level_%d.seg.tmp", l))
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("storage: create level file: %w", err)
	}
	w.levels[l] = &tieredLevel{f: f, tmp: tmp}
	return w.levels[l], nil
}

// WriteSegment appends one (level, plane) payload to its level's tier file.
// Planes of a level must be written in increasing plane order. The payload
// is on disk when WriteSegment returns; the caller may recycle the buffer.
func (w *TieredWriter) WriteSegment(id SegmentID, payload []byte) error {
	if w.closed {
		return fmt.Errorf("storage: write to finished tiered writer")
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
// temporary files removed, and no manifest is written, so Open never sees
// the partial store. A no-op after Commit or a prior Abort, which makes
// `defer w.Abort()` the idiomatic cleanup.
func (w *TieredWriter) Abort() {
	if !w.closed {
		w.closed = true
		w.discard()
	}
}

// discard closes the level files and removes every file still under its
// temporary name.
func (w *TieredWriter) discard() {
	for _, lv := range w.levels {
		lv.f.Close()
		os.Remove(lv.tmp)
	}
	os.Remove(filepath.Join(w.root, "manifest.json.tmp"))
}

// Commit finalizes the store with the opaque metadata blob — streaming
// callers only have it once every segment has been produced. The write is
// atomic at the store level: every file lands under a temporary name
// first, and the manifest — which Open requires — is renamed into place
// last, after all level files. A Commit that fails partway leaves no
// manifest.json (or the previous one, if overwriting), so Open never
// half-accepts the store; stray *.tmp files are cleaned up on the error
// path.
func (w *TieredWriter) Commit(meta []byte) (err error) {
	if w.closed {
		return fmt.Errorf("storage: commit on finished tiered writer")
	}
	w.closed = true
	defer func() {
		if err != nil {
			w.discard()
		}
	}()
	man := tieredManifest{
		Version:   tieredManifestVersion,
		Placement: w.hierarchy.Placement,
		Meta:      meta,
		Levels:    make([][]int64, len(w.hierarchy.Placement)),
		Checksums: make([][]uint32, len(w.hierarchy.Placement)),
	}
	for _, t := range w.hierarchy.Tiers {
		man.TierNames = append(man.TierNames, t.Name)
	}
	// tmp → final renames, performed only once every file is written.
	var tmps []string
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
		tmps = append(tmps, lv.tmp)
		man.Levels[l] = lv.sizes
		man.Checksums[l] = lv.crcs
	}
	blob, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("storage: marshal manifest: %w", err)
	}
	manTmp := filepath.Join(w.root, "manifest.json.tmp")
	if err := os.WriteFile(manTmp, blob, 0o644); err != nil {
		return fmt.Errorf("storage: write manifest: %w", err)
	}
	// Commit: level files first, manifest last.
	for _, tmp := range append(tmps, manTmp) {
		final := strings.TrimSuffix(tmp, ".tmp")
		if err := os.Rename(tmp, final); err != nil {
			return fmt.Errorf("storage: commit %s: %w", final, err)
		}
	}
	return nil
}

// readManifest fills the index from a tiered directory's manifest.json:
// level l's planes lie back to back, in plane order, in
// <dir>/<tier of l>/level_<l>.seg.
func (s *Store) readManifest(dir string) error {
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return fmt.Errorf("storage: read manifest: %w", err)
	}
	var man tieredManifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return fmt.Errorf("storage: parse manifest: %w", err)
	}
	if man.Version != 1 && man.Version != tieredManifestVersion {
		return fmt.Errorf("storage: unsupported tiered version %d", man.Version)
	}
	if len(man.Placement) != len(man.Levels) {
		return fmt.Errorf("storage: manifest placement/levels mismatch")
	}
	if man.Version >= 2 {
		if len(man.Checksums) != len(man.Levels) {
			return fmt.Errorf("storage: manifest has %d checksum levels for %d levels",
				len(man.Checksums), len(man.Levels))
		}
		for l := range man.Levels {
			if len(man.Checksums[l]) != len(man.Levels[l]) {
				return fmt.Errorf("storage: manifest level %d has %d checksums for %d planes",
					l, len(man.Checksums[l]), len(man.Levels[l]))
			}
		}
	} else if man.Checksums != nil {
		return fmt.Errorf("storage: version-1 manifest carries checksums")
	}
	s.meta = man.Meta
	s.unverified = man.Version < 2
	for l, sizes := range man.Levels {
		ix := man.Placement[l]
		if ix < 0 || ix >= len(man.TierNames) {
			return fmt.Errorf("storage: corrupt placement for level %d", l)
		}
		tier := man.TierNames[ix]
		sf := &storeFile{path: filepath.Join(dir, tier, fmt.Sprintf("level_%d.seg", l)), tier: tier}
		s.files = append(s.files, sf)
		var off int64
		for k, sz := range sizes {
			if sz < 0 || off > (1<<50)-sz {
				return fmt.Errorf("storage: manifest level %d has implausible sizes", l)
			}
			e := segEntry{id: SegmentID{Level: l, Plane: k}, file: sf, offset: uint64(off), size: uint64(sz)}
			if !s.unverified {
				e.crc = man.Checksums[l][k]
			}
			s.segs[e.id] = e
			off += sz
		}
	}
	return nil
}
