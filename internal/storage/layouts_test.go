package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pmgard/internal/obs"
)

// The layout-conformance table: every on-disk layout Open accepts must read
// the same segments back, account them the same way and fail the same way.
// A case is written once and run against every row of storeLayouts.

// storeLayout is one on-disk layout and how to write a segment set to it.
type storeLayout struct {
	name string
	// tiers: reads are also accounted per tier, and a plane id skipped by
	// the writer is padded to an empty segment (a flat table has no entry).
	tiers bool
	// checksums: payloads carry a CRC32. Version-1 manifests do not; only
	// their length is checked.
	checksums bool
	write     func(t *testing.T, meta []byte, segs map[SegmentID][]byte) string
}

var storeLayouts = []storeLayout{
	{name: "flat", checksums: true, write: writeFlatStore},
	{name: "tiered-v2", tiers: true, checksums: true, write: writeTieredDir},
	{name: "tiered-v1", tiers: true, write: func(t *testing.T, meta []byte, segs map[SegmentID][]byte) string {
		dir := writeTieredDir(t, meta, segs)
		downgradeManifestV1(t, dir)
		return dir
	}},
}

// eachLayout runs one conformance case against every layout.
func eachLayout(t *testing.T, run func(t *testing.T, lay storeLayout)) {
	for _, lay := range storeLayouts {
		t.Run(lay.name, func(t *testing.T) { run(t, lay) })
	}
}

// open writes segs in the layout and opens the result.
func (lay storeLayout) open(t *testing.T, meta []byte, segs map[SegmentID][]byte) *Store {
	t.Helper()
	st, err := Open(lay.write(t, meta, segs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// segmentWriter is the protocol both layouts' writers follow.
type segmentWriter interface {
	WriteSegment(id SegmentID, payload []byte) error
	Commit(meta []byte) error
	Abort()
}

// writeSegments writes segs through w in (level, plane) order and commits.
func writeSegments(t *testing.T, w segmentWriter, meta []byte, segs map[SegmentID][]byte) {
	t.Helper()
	defer w.Abort()
	ids := make([]SegmentID, 0, len(segs))
	for id := range segs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool {
		if ids[a].Level != ids[b].Level {
			return ids[a].Level < ids[b].Level
		}
		return ids[a].Plane < ids[b].Plane
	})
	for _, id := range ids {
		if err := w.WriteSegment(id, segs[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(meta); err != nil {
		t.Fatal(err)
	}
}

func writeFlatStore(t *testing.T, meta []byte, segs map[SegmentID][]byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "field.pmgd")
	w, err := CreateStream(path)
	if err != nil {
		t.Fatal(err)
	}
	writeSegments(t, w, meta, segs)
	return path
}

// writeTieredDir writes segs as a tiered directory over the default
// hierarchy of as many levels as segs spans.
func writeTieredDir(t *testing.T, meta []byte, segs map[SegmentID][]byte) string {
	t.Helper()
	levels := 1
	for id := range segs {
		levels = max(levels, id.Level+1)
	}
	h, err := DefaultHierarchy(levels)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	w, err := CreateTiered(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	writeSegments(t, w, meta, segs)
	return dir
}

// downgradeManifestV1 rewrites a store's manifest as version 1 (no
// checksums), as written by pre-checksum stores.
func downgradeManifestV1(t *testing.T, dir string) {
	t.Helper()
	manPath := filepath.Join(dir, "manifest.json")
	blob, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	man["version"] = 1
	delete(man, "checksums")
	blob, err = json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// requireCorrupt asserts err is what rotted or truncated media must read
// as: ErrCorrupt, hence permanent — a retry cannot restore the bytes.
func requireCorrupt(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("%s: err = %v, want it to wrap ErrCorrupt", what, err)
	}
	if Classify(err) != FaultPermanent {
		t.Fatalf("%s classified transient: %v", what, err)
	}
}

func TestSegmentStoreRoundTrip(t *testing.T) {
	eachLayout(t, func(t *testing.T, lay storeLayout) {
		rng := rand.New(rand.NewSource(1))
		meta := []byte(`{"field":"Jx"}`)
		segs := make(map[SegmentID][]byte)
		for l := 0; l < 3; l++ {
			for p := 0; p < 4; p++ {
				payload := make([]byte, 10+rng.Intn(100))
				rng.Read(payload)
				segs[SegmentID{Level: l, Plane: p}] = payload
			}
		}
		// Level 3 skips planes 1-2.
		segs[SegmentID{Level: 3, Plane: 0}] = []byte("d")
		segs[SegmentID{Level: 3, Plane: 3}] = []byte("eeeee")
		st := lay.open(t, meta, segs)
		// The blob handed to Commit, after every segment, reads back intact.
		if !bytes.Equal(st.Meta(), meta) {
			t.Fatalf("meta = %q, want %q", st.Meta(), meta)
		}
		for id, want := range segs {
			got, err := st.ReadSegment(id)
			if err != nil {
				t.Fatalf("%+v: %v", id, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("segment %+v payload mismatch: %q vs %q", id, got, want)
			}
		}
		skipped := SegmentID{Level: 3, Plane: 1}
		got, err := st.ReadSegment(skipped)
		if lay.tiers {
			if err != nil || len(got) != 0 {
				t.Fatalf("skipped plane: %v, %q; want it to read back empty", err, got)
			}
			if n := len(st.segs); n != len(segs)+2 {
				t.Fatalf("segment count %d, want %d and the 2 padded planes", n, len(segs))
			}
		} else {
			if err == nil {
				t.Fatalf("skipped plane read %q from a table with no entry for it", got)
			}
			if n := len(st.segs); n != len(segs) {
				t.Fatalf("segment count %d, want %d", n, len(segs))
			}
		}
	})
}

func TestSegmentStoreAccounting(t *testing.T) {
	eachLayout(t, func(t *testing.T, lay storeLayout) {
		coarse, fine := SegmentID{Level: 0, Plane: 0}, SegmentID{Level: 2, Plane: 0}
		st := lay.open(t, nil, map[SegmentID][]byte{
			coarse: make([]byte, 100),
			fine:   make([]byte, 7),
		})
		if st.BytesRead() != 0 || st.Requests() != 0 || len(st.TierBytes()) != 0 {
			t.Fatal("fresh store has non-zero counters")
		}
		// One read before Instrument, to exercise the fold-in.
		st.ReadSegment(coarse)
		o := obs.New()
		st.Instrument(o)
		st.ReadSegment(fine)
		st.ReadSegment(fine)
		if st.BytesRead() != 114 || st.Requests() != 3 {
			t.Fatalf("counters = (%d bytes, %d reqs), want (114, 3)", st.BytesRead(), st.Requests())
		}
		tb, tr := st.TierBytes(), st.TierRequests()
		counters := make(map[string]int64) // the storage.tier.* mirrors
		for name, v := range o.Metrics.Snapshot().Counters {
			if strings.HasPrefix(name, "storage.tier.") {
				counters[name] = v
			}
		}
		if lay.tiers {
			// The default 3-level hierarchy: level 0 on the fastest tier,
			// level 2 on the slowest.
			fast, slow := DefaultTiers()[0].Name, DefaultTiers()[len(DefaultTiers())-1].Name
			for l, want := range map[int]string{0: fast, 2: slow} {
				if tier, err := st.TierOf(l); err != nil || tier != want {
					t.Fatalf("TierOf(%d) = %q, %v; want %q", l, tier, err, want)
				}
			}
			if tb[fast] != 100 || tr[fast] != 1 || tb[slow] != 14 || tr[slow] != 2 || len(tb) != 2 || len(tr) != 2 {
				t.Fatalf("tier accounting: bytes %v, requests %v", tb, tr)
			}
			for tier := range tb {
				if counters["storage.tier."+tier+".bytes_read"] != tb[tier] || counters["storage.tier."+tier+".requests"] != tr[tier] {
					t.Fatalf("registry mirror of tier %s disagrees with %v / %v: %v", tier, tb, tr, counters)
				}
			}
			if len(counters) != 4 {
				t.Fatalf("a tier never read mirrored names: %v", counters)
			}
		} else {
			if len(tb) != 0 || len(tr) != 0 || len(counters) != 0 {
				t.Fatalf("a store without tiers reports tiers: %v %v %v", tb, tr, counters)
			}
			if _, err := st.TierOf(0); err == nil {
				t.Fatal("TierOf succeeded on a store without tiers")
			}
		}
		st.ResetCounters()
		if st.BytesRead() != 0 || st.Requests() != 0 || len(st.TierBytes()) != 0 {
			t.Fatal("ResetCounters did not reset")
		}
	})
}

// An id the index does not hold is what a flipped level/plane field of a
// .pmgd table entry, or a manifest level shorter than the header's plane
// count, reads as: corruption, so permanent — a retry cannot grow the index.
func TestSegmentStoreMissingSegment(t *testing.T) {
	eachLayout(t, func(t *testing.T, lay storeLayout) {
		st := lay.open(t, nil, map[SegmentID][]byte{{Level: 0, Plane: 0}: {1}})
		for _, id := range []SegmentID{{Level: 9, Plane: 9}, {Level: 9, Plane: 0}, {Level: 0, Plane: 9}, {Level: -1, Plane: 0}, {Level: 0, Plane: -1}} {
			_, err := st.ReadSegment(id)
			if err == nil {
				t.Fatalf("read of absent segment %+v succeeded", id)
			}
			requireCorrupt(t, fmt.Sprintf("absent segment %+v", id), err)
		}
		if _, err := st.TierOf(9); err == nil {
			t.Fatal("TierOf bad level accepted")
		}
		if st.Requests() != 0 {
			t.Fatalf("%d rejected reads were accounted", st.Requests())
		}
	})
}

func TestChecksumDetectsCorruption(t *testing.T) {
	eachLayout(t, func(t *testing.T, lay storeLayout) {
		rotted, clean := SegmentID{Level: 0, Plane: 0}, SegmentID{Level: 0, Plane: 1}
		st := lay.open(t, nil, map[SegmentID][]byte{
			rotted: []byte("good data here"),
			clean:  []byte("untouched"),
		})
		// Flip one byte of the first plane's payload on disk.
		e := st.segs[rotted]
		blob, err := os.ReadFile(e.file.path)
		if err != nil {
			t.Fatal(err)
		}
		blob[e.offset+2] ^= 0x01
		if err := os.WriteFile(e.file.path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.ReadSegment(rotted)
		if lay.checksums {
			if err == nil {
				t.Fatalf("corrupted payload %q passed its checksum", got)
			}
			requireCorrupt(t, "bit rot", err)
			if !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("err = %v, want it to say checksum mismatch", err)
			}
			if st.Requests() != 0 {
				t.Fatal("a rejected read was accounted")
			}
		} else if err != nil || string(got) != "gond data here" {
			// Nothing in a version-1 manifest can catch same-length rot; the
			// read is documented as unverified.
			t.Fatalf("unverified read = %q, %v", got, err)
		}
		// The undamaged plane still reads (its checksum matches).
		if _, err := st.ReadSegment(clean); err != nil {
			t.Fatalf("clean plane rejected: %v", err)
		}
	})
}

// TestStoreLayouts holds the conformance cases that had no layout-neutral
// test before the layouts shared a reader.
func TestStoreLayouts(t *testing.T) {
	eachLayout(t, func(t *testing.T, lay storeLayout) {
		first, last := SegmentID{Level: 0, Plane: 0}, SegmentID{Level: 0, Plane: 1}
		segs := map[SegmentID][]byte{first: []byte("plane zero"), last: []byte("plane one payload")}

		// A payload file truncated after it was opened fails the read with
		// a permanent error — never a zero-padded buffer, which a
		// checksum-less manifest would accept.
		t.Run("truncated-after-open", func(t *testing.T) {
			st := lay.open(t, nil, segs)
			// Warm the file handle with a good read.
			if _, err := st.ReadSegment(first); err != nil {
				t.Fatal(err)
			}
			e := st.segs[last]
			if err := os.Truncate(e.file.path, int64(e.offset)+3); err != nil {
				t.Fatal(err)
			}
			got, err := st.ReadSegment(last)
			if err == nil {
				t.Fatalf("truncated plane read succeeded with %q", got)
			}
			requireCorrupt(t, "short read", err)
			// The intact prefix stays readable: degraded sessions fall back to it.
			if _, err := st.ReadSegment(first); err != nil {
				t.Fatalf("plane 0 unreadable after tail truncation: %v", err)
			}
		})

		// Truncated before the store looks at the file: Open refuses a
		// .pmgd whose table points past its end; a level file opens lazily,
		// so there the read refuses — before allocating the extent.
		t.Run("truncated-before-open", func(t *testing.T) {
			path := lay.write(t, nil, segs)
			st, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			e := st.segs[last]
			st.Close()
			if err := os.Truncate(e.file.path, int64(e.offset)+3); err != nil {
				t.Fatal(err)
			}
			st, err = Open(path)
			if err != nil {
				if lay.tiers {
					t.Fatalf("Open read a level file: %v", err)
				}
				return
			}
			defer st.Close()
			if !lay.tiers {
				t.Fatal("Open accepted a table entry past the end of the file")
			}
			_, err = st.ReadSegment(last)
			requireCorrupt(t, "extent past the end of its file", err)
		})

		// Eight readers share the lazily opened files: one handle per file.
		t.Run("concurrent-readers", func(t *testing.T) {
			const levels = 5
			wide := make(map[SegmentID][]byte)
			for l := 0; l < levels; l++ {
				wide[SegmentID{Level: l, Plane: 0}] = bytes.Repeat([]byte{byte(l + 1)}, 1024)
			}
			st := lay.open(t, []byte("m"), wide)
			errc := make(chan error, 8)
			for g := 0; g < 8; g++ {
				go func(g int) {
					for i := 0; i < 50; i++ {
						l := (g + i) % levels
						b, err := st.ReadSegment(SegmentID{Level: l, Plane: 0})
						if err != nil {
							errc <- fmt.Errorf("goroutine %d read level %d: %w", g, l, err)
							return
						}
						if len(b) != 1024 || b[0] != byte(l+1) {
							errc <- fmt.Errorf("goroutine %d level %d: bad payload", g, l)
							return
						}
					}
					errc <- nil
				}(g)
			}
			for g := 0; g < 8; g++ {
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
			}
			if st.Requests() != 8*50 || st.BytesRead() != 8*50*1024 {
				t.Fatalf("accounted %d reads / %d bytes, want %d / %d", st.Requests(), st.BytesRead(), 8*50, 8*50*1024)
			}
			want := 1
			if lay.tiers {
				want = levels
			}
			open := 0
			for _, sf := range st.files {
				if sf.f != nil {
					open++
				}
			}
			if open != want || len(st.files) != want {
				t.Fatalf("%d of %d payload files open, want %d of %d", open, len(st.files), want, want)
			}
		})

		// A local read cannot be interrupted mid-syscall, so Segment checks
		// ctx at entry: an ended ctx reads nothing.
		t.Run("cancelled-ctx", func(t *testing.T) {
			st := lay.open(t, nil, segs)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := st.Segment(ctx, 0, 0); !errors.Is(err, context.Canceled) {
				t.Fatalf("Segment under a cancelled ctx: %v, want context.Canceled", err)
			}
			if st.Requests() != 0 {
				t.Fatal("a cancelled read reached the file")
			}
			if got, err := st.Segment(context.Background(), 0, 0); err != nil || string(got) != "plane zero" {
				t.Fatalf("Segment = %q, %v", got, err)
			}
		})
	})
}
