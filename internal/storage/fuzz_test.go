package storage

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzOpen ensures arbitrary bytes never panic the store parser: any input
// either opens cleanly (and all advertised segments read back without
// panicking) or is rejected with an error.
func FuzzOpen(f *testing.F) {
	// Seed with a valid store and a few mutations.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.pmgd")
	w, err := CreateStream(path)
	if err != nil {
		f.Fatal(err)
	}
	w.WriteSegment(SegmentID{Level: 0, Plane: 0}, []byte("hello"))
	w.WriteSegment(SegmentID{Level: 1, Plane: 3}, []byte{1, 2, 3})
	if err := w.Commit([]byte(`{"f":"x"}`)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte("PMGD"))
	f.Add([]byte{})
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[8] ^= 0xFF
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := filepath.Join(t.TempDir(), "fuzz.pmgd")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(p)
		if err != nil {
			return // rejected cleanly
		}
		defer st.Close()
		for id := range st.segs {
			st.ReadSegment(id) // must not panic; errors are fine
		}
	})
}

// FuzzOpenTiered is FuzzOpen for the other layout Open accepts: arbitrary
// bytes as a directory's manifest.json must either open cleanly or be
// rejected with an error, never panic — and whatever opens must survive
// reads of every advertised plane (against level files that may be missing
// entirely).
func FuzzOpenTiered(f *testing.F) {
	// Seed with a real manifest written by the current writer...
	dir := f.TempDir()
	h, err := DefaultHierarchy(2)
	if err != nil {
		f.Fatal(err)
	}
	w, err := CreateTiered(filepath.Join(dir, "seed"), h)
	if err != nil {
		f.Fatal(err)
	}
	w.WriteSegment(SegmentID{Level: 0, Plane: 0}, []byte("hello"))
	w.WriteSegment(SegmentID{Level: 1, Plane: 2}, []byte{1, 2, 3})
	if err := w.Commit([]byte(`{"f":"x"}`)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, "seed", "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// ...a hand-rolled version-1 manifest...
	v1, err := json.Marshal(tieredManifest{
		Version:   1,
		TierNames: []string{"nvme", "hdd"},
		Placement: []int{0, 1},
		Levels:    [][]int64{{5}, {0, 0, 3}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	// ...and hostile mutations: truncation, version confusion, negative and
	// overflowing sizes, mismatched checksum shapes.
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":2}`))
	f.Add([]byte(`{"version":2,"placement":[0],"levels":[[-1]],"checksums":[[0]]}`))
	f.Add([]byte(`{"version":1,"placement":[0],"levels":[[1125899906842624,1125899906842624]]}`))
	f.Add([]byte(`{"version":2,"placement":[0,0],"levels":[[1]],"checksums":[[1],[2]]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "manifest.json"), data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(root)
		if err != nil {
			return // rejected cleanly
		}
		defer st.Close()
		for id := range st.segs {
			st.TierOf(id.Level) // must not panic
			st.ReadSegment(id)  // errors fine, panics not
		}
	})
}
