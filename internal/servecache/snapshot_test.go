package servecache

import (
	"context"
	"sync"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/obs"
)

// cachePlanes gets planes [0, planes) of level of field "f" through c, each
// a size-byte bitset.
func cachePlanes(t *testing.T, c *Cache, level, planes, size int) {
	t.Helper()
	run := Run{Field: "f", Level: level, Planes: make([]int, planes)}
	for k := range run.Planes {
		run.Planes[k] = k
	}
	src := sourceFunc(func(context.Context) ([]byte, int64, error) { return make([]byte, size), 1, nil })
	for _, p := range c.Get(context.Background(), run, src, nil) {
		if p.Err != nil {
			t.Fatal(p.Err)
		}
	}
}

// snapshotOf is a snapshot of the first prefix planes of a 32-plane level of
// n coefficients: 4n bytes.
func snapshotOf(prefix, n int) *bitplane.Words {
	return &bitplane.Words{Planes: 32, Prefix: prefix, W32: make([]uint32, n)}
}

// TestSnapshotChargedAndEvictedWithPlanes: a snapshot's bytes count toward
// the budget and servecache.bytes, it takes its place in the one LRU, and
// making room for planes evicts it like any entry.
func TestSnapshotChargedAndEvictedWithPlanes(t *testing.T) {
	c := New(1000)
	o := obs.New()
	c.Instrument(o)
	level := LevelKey{Field: "f", Level: 0}
	cachePlanes(t, c, 0, 4, 100)
	w := snapshotOf(4, 50)
	if !c.PublishSnapshot(level, w) {
		t.Fatal("a snapshot of cached planes that fits the budget was refused")
	}
	if got := c.Snapshot(level); got != w {
		t.Fatalf("Snapshot = %p, want the published %p", got, w)
	}
	if st := c.Stats(); st.Bytes != 600 || st.Snapshots != 1 || st.Entries != 4 {
		t.Fatalf("after publishing: %+v, want 600 bytes, 1 snapshot, 4 planes", st)
	}
	if got := o.Gauge("servecache.bytes").Value(); got != 600 {
		t.Fatalf("servecache.bytes = %v, want 600 (planes and snapshot)", got)
	}
	// Touch the planes: the snapshot is now the least recently used entry,
	// and a 500-byte level needs room for all but 100 of it.
	cachePlanes(t, c, 0, 4, 100)
	cachePlanes(t, c, 1, 5, 100)
	if c.Snapshot(level) != nil {
		t.Fatal("the least recently used snapshot survived a plane insert that needed its room")
	}
	if st := c.Stats(); st.Bytes != 900 || st.Snapshots != 0 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v, want 900 bytes, no snapshot, 1 eviction", st)
	}
}

// TestSnapshotLargerThanBudgetIsNeverCached: a snapshot that cannot fit
// even an empty cache is refused and counted, and evicts nothing.
func TestSnapshotLargerThanBudgetIsNeverCached(t *testing.T) {
	c := New(300)
	o := obs.New()
	c.Instrument(o)
	cachePlanes(t, c, 0, 2, 100)
	level := LevelKey{Field: "f", Level: 0}
	if c.PublishSnapshot(level, snapshotOf(2, 100)) {
		t.Fatal("a 400-byte snapshot was cached under a 300-byte budget")
	}
	if st := c.Stats(); st.Snapshots != 0 || st.SnapshotOversize != 1 || st.Bytes != 200 || st.Evictions != 0 {
		t.Fatalf("after the oversize offer: %+v, want no snapshot, 1 oversize, 200 bytes, no eviction", st)
	}
	if got := o.Counter("servecache.snapshot_oversize").Value(); got != 1 {
		t.Fatalf("servecache.snapshot_oversize = %d, want 1", got)
	}
}

// TestSnapshotTakesOnlyFreeRoom: a snapshot that fits the budget but not
// the room it has free is refused and evicts nothing — the planes filling a
// budget are kept — while one replacing a smaller snapshot may use that
// snapshot's room.
func TestSnapshotTakesOnlyFreeRoom(t *testing.T) {
	c := New(1000)
	level := LevelKey{Field: "f", Level: 0}
	cachePlanes(t, c, 0, 8, 100)
	if c.PublishSnapshot(level, snapshotOf(8, 75)) {
		t.Fatal("a 300-byte snapshot was taken with 200 bytes free")
	}
	if st := c.Stats(); st.Snapshots != 0 || st.Evictions != 0 || st.Bytes != 800 || st.SnapshotOversize != 0 {
		t.Fatalf("after the refused offer: %+v, want no snapshot, no eviction, 800 bytes, no oversize", st)
	}
	if !c.PublishSnapshot(level, snapshotOf(4, 50)) {
		t.Fatal("a 200-byte snapshot was refused with 200 bytes free")
	}
	if !c.PublishSnapshot(level, snapshotOf(8, 50)) || c.Snapshot(level).Prefix != 8 {
		t.Fatal("a snapshot of more planes did not take the room of the one it replaces")
	}
	if st := c.Stats(); st.Snapshots != 1 || st.Evictions != 0 || st.Bytes != 1000 {
		t.Fatalf("after replacement: %+v, want one snapshot, no eviction, 1000 bytes", st)
	}
}

// TestSnapshotReplacedOnlyByMorePlanes: an offer of no more planes than the
// held snapshot is refused and one of more replaces it.
func TestSnapshotReplacedOnlyByMorePlanes(t *testing.T) {
	c := New(0)
	level := LevelKey{Field: "f", Level: 2}
	cachePlanes(t, c, 2, 3, 10)
	two := snapshotOf(2, 8)
	if !c.PublishSnapshot(level, two) {
		t.Fatal("first snapshot refused")
	}
	for _, prefix := range []int{1, 2} {
		if c.PublishSnapshot(level, snapshotOf(prefix, 8)) {
			t.Fatalf("a %d-plane snapshot replaced a 2-plane one", prefix)
		}
	}
	if c.Snapshot(level) != two {
		t.Fatal("a refused offer replaced the held snapshot")
	}
	three := snapshotOf(3, 8)
	if !c.PublishSnapshot(level, three) || c.Snapshot(level) != three {
		t.Fatal("a 3-plane snapshot did not replace the 2-plane one")
	}
	if st := c.Stats(); st.Snapshots != 1 || st.Bytes != 3*10+4*8 {
		t.Fatalf("after replacement: %+v, want one snapshot and %d bytes", st, 3*10+4*8)
	}
}

// TestInvalidateDropsLevelSnapshot: invalidating a plane drops the snapshot
// of its level, which may hold its bits, and no other.
func TestInvalidateDropsLevelSnapshot(t *testing.T) {
	c := New(0)
	for l := 0; l < 2; l++ {
		cachePlanes(t, c, l, 2, 10)
		if !c.PublishSnapshot(LevelKey{Field: "f", Level: l}, snapshotOf(2, 4)) {
			t.Fatal("snapshot refused")
		}
	}
	c.Invalidate(Key{Field: "f", Level: 1, Plane: 1})
	if c.Snapshot(LevelKey{Field: "f", Level: 1}) != nil {
		t.Fatal("level 1's snapshot survived the invalidation of its plane 1")
	}
	if c.Snapshot(LevelKey{Field: "f", Level: 0}) == nil {
		t.Fatal("level 0's snapshot was dropped by a level 1 invalidation")
	}
	if st := c.Stats(); st.Bytes != 3*10+16 || st.Snapshots != 1 {
		t.Fatalf("after invalidation: %+v, want %d bytes and 1 snapshot", st, 3*10+16)
	}
}

// TestRacingPublishersKeepLargestSnapshot: publishers of every prefix race
// (run it with -race); the snapshot of the most planes is what stays, and
// it is charged once.
func TestRacingPublishersKeepLargestSnapshot(t *testing.T) {
	c := New(0)
	level := LevelKey{Field: "f", Level: 0}
	cachePlanes(t, c, 0, 32, 8)
	var wg sync.WaitGroup
	for prefix := 1; prefix <= 32; prefix++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.PublishSnapshot(level, snapshotOf(prefix, 16))
			if got := c.Snapshot(level); got == nil || got.Prefix < prefix {
				t.Errorf("after publishing %d planes the snapshot holds %v", prefix, got)
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot(level); got == nil || got.Prefix != 32 {
		t.Fatalf("snapshot after the race: %+v, want 32 planes", got)
	}
	if st := c.Stats(); st.Snapshots != 1 || st.Bytes != 32*8+4*16 {
		t.Fatalf("after the race: %+v, want one snapshot and %d bytes", st, 32*8+4*16)
	}
}

// TestNilCacheHoldsNoSnapshot: the uncached session's nil *Cache has no
// snapshot and takes none.
func TestNilCacheHoldsNoSnapshot(t *testing.T) {
	var c *Cache
	level := LevelKey{Field: "f"}
	if c.PublishSnapshot(level, snapshotOf(1, 1)) || c.Snapshot(level) != nil {
		t.Fatal("a nil cache took or held a snapshot")
	}
}
