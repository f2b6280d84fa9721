package storage

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// streamTestSegs is a deterministic segment set spanning several levels,
// with a skipped plane and an empty payload.
func streamTestSegs() []struct {
	id      SegmentID
	payload []byte
} {
	var segs []struct {
		id      SegmentID
		payload []byte
	}
	for l := 0; l < 4; l++ {
		for p := 0; p < 5; p++ {
			if l == 2 && p == 1 {
				continue // skipped plane
			}
			payload := bytes.Repeat([]byte{byte(17*l + 3*p + 1)}, 7*l+p)
			segs = append(segs, struct {
				id      SegmentID
				payload []byte
			}{SegmentID{Level: l, Plane: p}, payload})
		}
	}
	return segs
}

// streamTestDigest is the sha256 of the store file the batch writer (removed
// in favour of StreamWriter) produced from streamTestSegs and the metadata
// blob of TestStreamWriterByteIdentical — the format reference the streaming
// writer must keep reproducing byte for byte.
const streamTestDigest = "a9b1ec2958898612a4d205fe27f8a965e762749b643410db8ff9e2f39769232e"

// TestStreamWriterByteIdentical is the streaming writer's core contract:
// the file it produces is byte-for-byte the reference file of the store
// format, pinned by digest.
func TestStreamWriterByteIdentical(t *testing.T) {
	dir := t.TempDir()
	meta := []byte(`{"header":"blob","planes":32}`)
	segs := streamTestSegs()

	streamPath := filepath.Join(dir, "stream.pmgd")
	sw, err := CreateStream(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Abort()
	for _, s := range segs {
		if err := sw.WriteSegment(s.id, s.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Commit(meta); err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != streamTestDigest {
		t.Fatalf("streamed store (%d bytes) has digest %s, want the format reference %s", len(got), sum, streamTestDigest)
	}
	if _, err := os.Stat(streamPath + ".spill"); !os.IsNotExist(err) {
		t.Fatalf("spill file not removed after Commit: %v", err)
	}
	// And the streamed file opens and reads back through the normal Store.
	st, err := Open(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, s := range segs {
		got, err := st.ReadSegment(s.id)
		if err != nil {
			t.Fatalf("%+v: %v", s.id, err)
		}
		if !bytes.Equal(got, s.payload) {
			t.Fatalf("%+v payload mismatch", s.id)
		}
	}
}

// TestStreamWriterOrderEnforced checks the arrival-order contract.
func TestStreamWriterOrderEnforced(t *testing.T) {
	sw, err := CreateStream(filepath.Join(t.TempDir(), "s.pmgd"))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Abort()
	if err := sw.WriteSegment(SegmentID{Level: 1, Plane: 2}, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSegment(SegmentID{Level: 1, Plane: 2}, []byte("b")); err == nil {
		t.Error("duplicate segment accepted")
	}
	if err := sw.WriteSegment(SegmentID{Level: 1, Plane: 1}, []byte("c")); err == nil {
		t.Error("plane regression accepted")
	}
	if err := sw.WriteSegment(SegmentID{Level: 0, Plane: 9}, []byte("d")); err == nil {
		t.Error("level regression accepted")
	}
	if err := sw.WriteSegment(SegmentID{Level: 2, Plane: 0}, []byte("e")); err != nil {
		t.Errorf("level advance rejected: %v", err)
	}
}

// TestStreamWriterAbort checks that Abort leaves nothing behind.
func TestStreamWriterAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "aborted.pmgd")
	sw, err := CreateStream(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSegment(SegmentID{Level: 0, Plane: 0}, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	sw.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("final file exists after Abort: %v", err)
	}
	if _, err := os.Stat(path + ".spill"); !os.IsNotExist(err) {
		t.Errorf("spill file exists after Abort: %v", err)
	}
	if err := sw.WriteSegment(SegmentID{Level: 0, Plane: 1}, []byte("x")); err == nil {
		t.Error("write after Abort accepted")
	}
	if err := sw.Commit(nil); err == nil {
		t.Error("commit after Abort accepted")
	}
}
