package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// What a tiered directory does beyond the layout-conformance table of
// layouts_test.go: placement on disk, its writer's validation and atomic
// commit, and the manifest versions its reader accepts.

func TestTieredPlacementOnDisk(t *testing.T) {
	dir := writeTieredDir(t, nil, map[SegmentID][]byte{
		{Level: 0, Plane: 0}: []byte("x"),
		{Level: 2, Plane: 0}: []byte("y"),
	})
	h, err := DefaultHierarchy(3)
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 lives in the fastest tier's directory, level 2 in the slowest.
	fast := h.Tiers[h.Placement[0]].Name
	slow := h.Tiers[h.Placement[2]].Name
	if _, err := os.Stat(filepath.Join(dir, fast, "level_0.seg")); err != nil {
		t.Fatalf("level 0 not in %s: %v", fast, err)
	}
	if _, err := os.Stat(filepath.Join(dir, slow, "level_2.seg")); err != nil {
		t.Fatalf("level 2 not in %s: %v", slow, err)
	}
}

// TestTieredLostLevelFile: level files open on first read, so a store that
// lost one (a decommissioned tier) still opens and serves the others; reads
// of the lost level classify permanent and sessions degrade around them.
func TestTieredLostLevelFile(t *testing.T) {
	kept, lost := SegmentID{Level: 0, Plane: 0}, SegmentID{Level: 2, Plane: 0}
	dir := writeTieredDir(t, nil, map[SegmentID][]byte{kept: []byte("x"), lost: []byte("y")})
	if err := os.Remove(filepath.Join(dir, DefaultTiers()[3].Name, "level_2.seg")); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("store with a lost level file rejected: %v", err)
	}
	defer st.Close()
	if _, err := st.ReadSegment(lost); !errors.Is(err, os.ErrNotExist) || Classify(err) != FaultPermanent {
		t.Fatalf("read from the lost level file: %v, want a permanent os.ErrNotExist", err)
	}
	if got, err := st.ReadSegment(kept); err != nil || string(got) != "x" {
		t.Fatalf("read beside the lost level file: %q, %v", got, err)
	}
}

func TestTieredWriterValidation(t *testing.T) {
	h, _ := DefaultHierarchy(2)
	dir := filepath.Join(t.TempDir(), "s")
	w, err := CreateTiered(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(SegmentID{Level: 5, Plane: 0}, nil); err == nil {
		t.Fatal("out-of-placement level accepted")
	}
	if err := w.WriteSegment(SegmentID{Level: 0, Plane: 1}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(SegmentID{Level: 0, Plane: 0}, []byte("b")); err == nil {
		t.Fatal("out-of-order plane accepted")
	}
	if err := w.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(SegmentID{Level: 0, Plane: 2}, nil); err == nil {
		t.Fatal("write after commit accepted")
	}
	if err := w.Commit(nil); err == nil {
		t.Fatal("commit after commit accepted")
	}
	// No placement at all is rejected at creation.
	if _, err := CreateTiered(dir, Hierarchy{Tiers: DefaultTiers()}); err == nil {
		t.Fatal("hierarchy without placement accepted")
	}
}

func TestOpenTieredRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir); err == nil {
		t.Fatal("missing manifest accepted")
	}
	for _, c := range []struct{ manifest, why string }{
		{"nope", "corrupt manifest"},
		{`{"version":99}`, "wrong version"},
		// Version 2 must carry one checksum per plane.
		{`{"version":2,"tier_names":["a"],"placement":[0],"levels":[[3]],"checksums":[[]]}`, "checksum/plane count mismatch"},
		{`{"version":2,"tier_names":["a"],"placement":[0],"levels":[[3]]}`, "version-2 manifest without checksums"},
		// Version 1 must not carry checksums.
		{`{"version":1,"tier_names":["a"],"placement":[0],"levels":[[3]],"checksums":[[7]]}`, "version-1 manifest with checksums"},
		// A level must sit on a tier the manifest names.
		{`{"version":1,"tier_names":["a"],"placement":[1],"levels":[[3]]}`, "placement on a tier that does not exist"},
	} {
		os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(c.manifest), 0o644)
		if _, err := Open(dir); err == nil {
			t.Fatalf("%s accepted", c.why)
		}
	}
}

func TestTieredReadsVersion1Manifest(t *testing.T) {
	dir := writeTieredDir(t, nil, map[SegmentID][]byte{
		{Level: 0, Plane: 0}: []byte("v1 payload"),
	})
	downgradeManifestV1(t, dir)
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("version-1 store rejected: %v", err)
	}
	defer st.Close()
	got, err := st.ReadSegment(SegmentID{Level: 0, Plane: 0})
	if err != nil || !bytes.Equal(got, []byte("v1 payload")) {
		t.Fatalf("version-1 read: %q, %v", got, err)
	}
}

// TestTieredTruncationDetectedWithoutChecksums is the short-read regression
// test: a tier file truncated after Open must fail the read with a
// permanent-classifiable error — never return a zero-padded buffer — even
// against a version-1 manifest, whose missing checksums cannot catch it.
func TestTieredTruncationDetectedWithoutChecksums(t *testing.T) {
	dir := writeTieredDir(t, nil, map[SegmentID][]byte{
		{Level: 0, Plane: 0}: []byte("plane zero"),
		{Level: 0, Plane: 1}: []byte("plane one payload"),
	})
	downgradeManifestV1(t, dir)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Warm the cached file handle with a good read.
	if _, err := st.ReadSegment(SegmentID{Level: 0, Plane: 0}); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-way through plane 1, as a tier losing its tail would.
	tier, err := st.TierOf(0)
	if err != nil {
		t.Fatal(err)
	}
	levelPath := filepath.Join(dir, tier, "level_0.seg")
	if err := os.Truncate(levelPath, int64(len("plane zero")+3)); err != nil {
		t.Fatal(err)
	}
	got, err := st.ReadSegment(SegmentID{Level: 0, Plane: 1})
	if err == nil {
		t.Fatalf("truncated plane read succeeded with %q; zero-padded buffers must not pass", got)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation error = %v, want it to wrap ErrCorrupt", err)
	}
	if Classify(err) != FaultPermanent {
		t.Fatal("truncation classified as transient; retries cannot restore lost bytes")
	}
	// The intact prefix stays readable: degraded sessions fall back to it.
	if _, err := st.ReadSegment(SegmentID{Level: 0, Plane: 0}); err != nil {
		t.Fatalf("plane 0 unreadable after tail truncation: %v", err)
	}
}

// tempFiles lists the *.tmp files anywhere under dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	var temps []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".tmp" {
			temps = append(temps, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return temps
}

func TestTieredCommitIsAtomic(t *testing.T) {
	h, err := DefaultHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateTiered(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(SegmentID{Level: 0, Plane: 0}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Sabotage the commit: a directory squats on level 0's final name, so
	// the tmp→final rename must fail after the files are written.
	tier0 := filepath.Join(dir, h.Tiers[h.Placement[0]].Name)
	if err := os.MkdirAll(filepath.Join(tier0, "level_0.seg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(nil); err == nil {
		t.Fatal("sabotaged Commit succeeded")
	}
	// The failed Commit must not leave a manifest (Open half-accepting the
	// store) nor stray temp files.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); !os.IsNotExist(err) {
		t.Fatalf("failed Commit left a manifest: %v", err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("half-written store opened")
	}
	if temps := tempFiles(t, dir); len(temps) > 0 {
		t.Fatalf("failed Commit left temp files: %v", temps)
	}
}

func TestTieredCommitAndAbortLeaveNoTempFiles(t *testing.T) {
	segs := map[SegmentID][]byte{
		{Level: 0, Plane: 0}: []byte("x"),
		{Level: 1, Plane: 0}: []byte("y"),
	}
	if temps := tempFiles(t, writeTieredDir(t, nil, segs)); len(temps) > 0 {
		t.Fatalf("successful Commit left temp files: %v", temps)
	}

	h, err := DefaultHierarchy(2)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "aborted")
	w, err := CreateTiered(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	for id, payload := range segs {
		if err := w.WriteSegment(id, payload); err != nil {
			t.Fatal(err)
		}
	}
	w.Abort()
	if temps := tempFiles(t, dir); len(temps) > 0 {
		t.Fatalf("Abort left temp files: %v", temps)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("aborted store opened")
	}
	if err := w.WriteSegment(SegmentID{Level: 1, Plane: 1}, []byte("z")); err == nil {
		t.Error("write after Abort accepted")
	}
	if err := w.Commit(nil); err == nil {
		t.Error("commit after Abort accepted")
	}
}
