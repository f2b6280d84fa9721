package storage

import (
	"os"
	"path/filepath"
	"testing"
)

func TestDefaultHierarchyPlacement(t *testing.T) {
	h, err := DefaultHierarchy(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if h.Placement[0] != 0 {
		t.Fatalf("level 0 placed on tier %d, want fastest tier 0", h.Placement[0])
	}
	if got, want := h.Placement[4], len(h.Tiers)-1; got != want {
		t.Fatalf("finest level placed on tier %d, want slowest tier %d", got, want)
	}
	for l := 1; l < len(h.Placement); l++ {
		if h.Placement[l] < h.Placement[l-1] {
			t.Fatalf("placement not monotone: %v", h.Placement)
		}
	}
}

func TestDefaultHierarchySingleLevel(t *testing.T) {
	h, err := DefaultHierarchy(1)
	if err != nil {
		t.Fatal(err)
	}
	if h.Placement[0] != 0 {
		t.Fatal("single level should sit on the fastest tier")
	}
	if _, err := DefaultHierarchy(0); err == nil {
		t.Fatal("DefaultHierarchy(0) should fail")
	}
}

func TestHierarchyValidate(t *testing.T) {
	bad := []Hierarchy{
		{},
		{Tiers: []Tier{{Name: "x", Bandwidth: 0}}},
		{Tiers: []Tier{{Name: "x", Bandwidth: 1, Latency: -1}}},
		{Tiers: []Tier{{Name: "x", Bandwidth: 1}}, Placement: []int{1}},
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("case %d: Validate passed, want error", i)
		}
	}
}

func TestReadTimeModel(t *testing.T) {
	h := Hierarchy{
		Tiers:     []Tier{{Name: "t", Latency: 2, Bandwidth: 100}},
		Placement: []int{0},
	}
	got, err := h.ReadTime(0, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3*2.0 + 5.0; got != want {
		t.Fatalf("ReadTime = %v, want %v", got, want)
	}
	// Zero work costs nothing.
	if z, _ := h.ReadTime(0, 0, 0); z != 0 {
		t.Fatalf("zero plan time = %v", z)
	}
	// Bytes with no explicit request count pays one latency.
	if one, _ := h.ReadTime(0, 100, 0); one != 2+1 {
		t.Fatalf("implicit single request time = %v, want 3", one)
	}
	if _, err := h.ReadTime(5, 1, 1); err == nil {
		t.Fatal("out-of-range level accepted")
	}
}

func TestPlanTime(t *testing.T) {
	h, _ := DefaultHierarchy(3)
	total, err := h.PlanTime([]int64{1000, 2000, 3000}, []int{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for l, b := range []int64{1000, 2000, 3000} {
		tl, _ := h.ReadTime(l, b, []int{1, 1, 2}[l])
		sum += tl
	}
	if total != sum {
		t.Fatalf("PlanTime = %v, want %v", total, sum)
	}
	if _, err := h.PlanTime([]int64{1}, []int{1, 2}); err == nil {
		t.Fatal("mismatched plan arrays accepted")
	}
}

func TestSlowerTiersCostMore(t *testing.T) {
	h, _ := DefaultHierarchy(4)
	fast, _ := h.ReadTime(0, 1<<20, 1)
	slow, _ := h.ReadTime(3, 1<<20, 1)
	if slow <= fast {
		t.Fatalf("slow tier read (%v) not slower than fast tier (%v)", slow, fast)
	}
}

func TestWriterRejectsDuplicatesAndBadIDs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.pmgd")
	w, err := CreateStream(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	id := SegmentID{Level: 1, Plane: 2}
	if err := w.WriteSegment(id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(id, []byte{2}); err == nil {
		t.Fatal("duplicate segment accepted")
	}
	if err := w.WriteSegment(SegmentID{Level: -1}, nil); err == nil {
		t.Fatal("negative level accepted")
	}
	if err := w.Commit(nil); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteSegment(SegmentID{Level: 2, Plane: 0}, nil); err == nil {
		t.Fatal("write after commit accepted")
	}
}

func TestOpenRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	// Truncated file.
	short := filepath.Join(dir, "short.pmgd")
	os.WriteFile(short, []byte("PM"), 0o644)
	if _, err := Open(short); err == nil {
		t.Fatal("truncated file accepted")
	}
	// Wrong magic.
	bad := filepath.Join(dir, "bad.pmgd")
	os.WriteFile(bad, append([]byte("XXXX"), make([]byte, 16)...), 0o644)
	if _, err := Open(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Nonexistent file.
	if _, err := Open(filepath.Join(dir, "missing.pmgd")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSegmentsLaidOutSequentially(t *testing.T) {
	// (level, plane) order in the file should match the progressive read
	// pattern: verify offsets grow with (level, plane).
	segs := map[SegmentID][]byte{
		{Level: 1, Plane: 0}: make([]byte, 10),
		{Level: 0, Plane: 1}: make([]byte, 20),
		{Level: 0, Plane: 0}: make([]byte, 30),
		{Level: 1, Plane: 1}: make([]byte, 40),
	}
	st, err := Open(writeFlatStore(t, nil, segs))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	order := []SegmentID{
		{Level: 0, Plane: 0}, {Level: 0, Plane: 1},
		{Level: 1, Plane: 0}, {Level: 1, Plane: 1},
	}
	prevEnd := int64(-1)
	for _, id := range order {
		e := st.segs[id]
		if int64(e.offset) <= prevEnd {
			t.Fatalf("segment %+v at offset %d not after previous end %d", id, e.offset, prevEnd)
		}
		prevEnd = int64(e.offset)
	}
}
