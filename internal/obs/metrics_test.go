package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.concurrent")
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	// Get-or-create must return the same instrument.
	if r.Counter("test.concurrent") != c {
		t.Fatal("Counter returned a different instance for the same name")
	}
}

func TestGaugeAddAndSet(t *testing.T) {
	g := &Gauge{}
	g.Set(2.5)
	g.Add(0.5)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %g, want 2", got)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	g := &Gauge{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				g.Add(0.25)
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 8*500*0.25 {
		t.Fatalf("gauge = %g, want %g", got, 8*500*0.25)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	// Exactly on a bound lands in that bound's bucket (first bound >= v).
	cases := []struct {
		v      float64
		bucket int
	}{
		{0.5, 0},
		{1, 0}, // == first bound
		{1.001, 1},
		{10, 1}, // == second bound
		{99, 2},
		{100, 2},   // == last bound
		{100.5, 3}, // overflow
		{math.Inf(1), 3},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	snap := h.snapshot()
	want := []int64{2, 2, 2, 2}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Fatalf("bucket %d count = %d, want %d (counts %v)", i, snap.Counts[i], w, snap.Counts)
		}
	}
	if snap.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(cases))
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 10))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				h.Observe(float64(g*250 + i))
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Fatalf("count = %d, want 2000", h.Count())
	}
	snap := h.snapshot()
	var total int64
	for _, c := range snap.Counts {
		total += c
	}
	if total != 2000 {
		t.Fatalf("bucket counts sum to %d, want 2000", total)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 16e-6, 64e-6}
	if len(b) != len(want) {
		t.Fatalf("got %d buckets, want %d", len(b), len(want))
	}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-18 {
			t.Fatalf("bucket %d = %g, want %g", i, b[i], want[i])
		}
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("buckets not increasing at %d: %v", i, b)
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(7)
	r.Gauge("a.gauge").Set(1.5)
	r.Histogram("a.hist", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot does not round-trip: %v", err)
	}
	if snap.Counters["a.count"] != 7 {
		t.Fatalf("counter = %d, want 7", snap.Counters["a.count"])
	}
	if snap.Gauges["a.gauge"] != 1.5 {
		t.Fatalf("gauge = %g, want 1.5", snap.Gauges["a.gauge"])
	}
	hs, ok := snap.Histograms["a.hist"]
	if !ok || hs.Count != 1 || hs.Counts[1] != 1 {
		t.Fatalf("histogram snapshot wrong: %+v", hs)
	}
	for _, name := range []string{"a.count", "a.gauge", "a.hist"} {
		if !snap.Has(name) {
			t.Fatalf("Has(%q) = false", name)
		}
	}
	if snap.Has("missing") {
		t.Fatal("Has(missing) = true")
	}
}

func TestNilRegistryAndInstrumentsAreInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("x").Set(1)
	r.Histogram("x", ByteBuckets()).Observe(1)
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var o *Obs
	o.Counter("x").Add(1)
	o.Gauge("x").Add(1)
	o.Histogram("x", nil).Observe(1)
	o.Span("x", nil).Child("y").End()
	var c *Counter
	if c.Value() != 0 {
		t.Fatal("nil counter reads nonzero")
	}
	var g *Gauge
	if g.Value() != 0 {
		t.Fatal("nil gauge reads nonzero")
	}
	var h *Histogram
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram reads nonzero")
	}
}

// TestObsRegistry: a component built from Obs.Registry counts into the
// caller's registry when there is one and into a private one otherwise.
func TestObsRegistry(t *testing.T) {
	o := New()
	if o.Registry() != o.Metrics {
		t.Fatal("Registry is not the Obs's own registry")
	}
	for _, o := range []*Obs{nil, {}} {
		a, b := o.Registry(), o.Registry()
		if a == nil || a == b {
			t.Fatalf("Registry on %+v = %p, %p, want two distinct private registries", o, a, b)
		}
		a.Counter("x").Add(2)
		if a.Counter("x").Value() != 2 {
			t.Fatal("private registry does not count")
		}
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("pub.count").Add(3)
	r.PublishExpvar("obs-test-registry")
	r.PublishExpvar("obs-test-registry") // must not panic
	other := NewRegistry()
	other.PublishExpvar("obs-test-registry") // first registry wins
}
