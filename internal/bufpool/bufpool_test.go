package bufpool

import (
	"runtime/debug"
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, class int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.class {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

// Identity assertions run against a private pool instance: the package
// globals are shared across tests (and warmed by other packages' tests in
// the same binary), so which pooled buffer a global Get returns is not
// deterministic.
func TestGetLengthAndReuse(t *testing.T) {
	var p slicePool[float64]
	s := p.get(100)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	if cap(s) < 100 || cap(s) > 128 {
		t.Fatalf("cap = %d, want within [100,128]", cap(s))
	}
	for i := range s {
		s[i] = float64(i)
	}
	p.put(s)
	// A smaller request in the same class must reuse the filed buffer —
	// except under the race detector, where sync.Pool randomly drops puts
	// to shake out lifecycle bugs, so identity is not guaranteed.
	r := p.get(80)
	if !raceEnabled && &r[0] != &s[0] {
		t.Fatal("same-class get did not reuse the pooled buffer")
	}
	p.put(r)
}

func TestZeroAndForeignSlices(t *testing.T) {
	if s := Bytes(0); s != nil {
		t.Fatalf("Bytes(0) = %v, want nil", s)
	}
	PutBytes(nil) // dropped, no panic
	// Foreign slices (not from the pool) are accepted and filed by capacity.
	var p slicePool[uint64]
	foreign := make([]uint64, 33, 100)
	p.put(foreign)
	got := p.get(60) // class 6 floor is 64 ≤ cap 100, so the slice is reusable
	if len(got) != 60 || cap(got) < 60 {
		t.Fatalf("get(60) after a foreign put: len %d cap %d", len(got), cap(got))
	}
	// sync.Pool drops puts at random under the race detector, so identity
	// is only observable without it.
	if !raceEnabled && &got[0] != &foreign[0] {
		t.Fatal("foreign slice was not filed under its capacity floor class")
	}
	p.put(got)
}

func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < 3; i++ { // warm both the class pool and the header pool
		PutBytes(Bytes(4096))
	}
	avg := testing.AllocsPerRun(100, func() {
		b := Bytes(4096)
		PutBytes(b)
	})
	if avg != 0 {
		t.Fatalf("steady-state Get/Put allocates %.2f allocs/op, want 0", avg)
	}
}

func TestSnapshotCounts(t *testing.T) {
	before := Snapshot()
	b := Bytes(1 << 10)
	PutBytes(b)
	_ = Bytes(1 << 10)
	after := Snapshot()
	if after.Puts <= before.Puts {
		t.Fatalf("puts did not advance: %+v -> %+v", before, after)
	}
	if after.Hits+after.News <= before.Hits+before.News {
		t.Fatalf("gets did not advance: %+v -> %+v", before, after)
	}
}
