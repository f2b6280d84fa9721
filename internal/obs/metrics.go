// Package obs is the stdlib-only observability layer of the pipeline: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms) snapshottable to JSON and publishable through expvar, plus a
// bounded in-memory span tracer that records one timeline per
// Refactor/Retrieve/Train run.
//
// The paper's claims are quantitative — bit-planes fetched, bytes
// transferred, retrieval time per tier (§V) — so every layer of the
// pipeline reports what it actually did through this package: decompose
// passes, bit-plane encode/decode, the lossless segment codec, the worker
// pool, the storage retry/quarantine path, retrieval sessions and NN
// training.
//
// Everything is nil-safe: a nil *Registry, *Tracer, *Obs or any nil
// instrument is a no-op, so instrumented hot paths cost a single nil check
// when observability is disabled. Long-lived structs like
// storage.RetryingSource take their instruments once, when they are built,
// from Obs.Registry: the caller's registry, or a private one, so they keep
// exact counts even when no registry is attached.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. The zero value is
// ready to use; a nil Counter ignores Add and reads as 0.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can move in both directions (queue depth,
// last epoch loss, accumulated seconds). The zero value is ready to use; a
// nil Gauge ignores writes and reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta with a CAS loop. No-op on nil.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Bounds are upper bucket edges in
// increasing order; an observation lands in the first bucket whose bound
// is >= the value, or in the implicit +Inf overflow bucket. A nil
// Histogram ignores observations.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	count  atomic.Int64
	sum    Gauge
	// exemplars[i] is the most recent traced observation that landed in
	// bucket i, nil until one arrives (see ObserveExemplar).
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one histogram observation back to the request trace that
// produced it, so a latency bucket on a dashboard can answer "show me one
// request that took this long" (the OpenMetrics exemplar concept, stdlib
// only).
type Exemplar struct {
	// TraceID is the trace id of the sampled request.
	TraceID string `json:"trace_id"`
	// Value is the sampled observation.
	Value float64 `json:"value"`
}

// NewHistogram returns a histogram over the given upper bucket bounds,
// which must be strictly increasing. The bounds slice is copied.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bounds)+1),
	}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	ix := sort.SearchFloat64s(h.bounds, v)
	h.counts[ix].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveExemplar records one value and, when traceID is non-empty, keeps
// it as the bucket's exemplar — the trace id of a sample request whose
// latency landed there, replacing the previous sample. No-op on a nil
// receiver.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	ix := sort.SearchFloat64s(h.bounds, v)
	h.counts[ix].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	if traceID != "" {
		h.exemplars[ix].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// snapshot captures the histogram state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	for i := range h.exemplars {
		if ex := h.exemplars[i].Load(); ex != nil {
			if s.Exemplars == nil {
				s.Exemplars = make([]*Exemplar, len(h.counts))
			}
			s.Exemplars[i] = ex
		}
	}
	return s
}

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start, each factor times the previous. start must be positive and
// factor > 1; n is clamped to at least 1.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// ByteBuckets returns the standard exponential byte-size buckets used for
// payload histograms: 64 B up to 1 GiB, quadrupling.
func ByteBuckets() []float64 { return ExpBuckets(64, 4, 13) }

// LatencyBuckets returns the standard exponential latency buckets in
// seconds: 1 µs up to ~268 s, quadrupling.
func LatencyBuckets() []float64 { return ExpBuckets(1e-6, 4, 15) }

// HistogramSnapshot is the JSON form of a histogram: counts per bucket
// (the last count is the overflow bucket above the final bound), the total
// observation count and the value sum.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	// Exemplars, when present, is bucket-aligned with Counts: entry i is
	// the latest traced observation that landed in bucket i (nil for
	// buckets without one). Omitted entirely when no observation carried a
	// trace id, so untraced snapshots keep their pre-exemplar shape.
	Exemplars []*Exemplar `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time JSON-marshalable copy of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Has reports whether the snapshot contains a metric with the given name,
// in any of the three kinds.
func (s Snapshot) Has(name string) bool {
	if _, ok := s.Counters[name]; ok {
		return true
	}
	if _, ok := s.Gauges[name]; ok {
		return true
	}
	_, ok := s.Histograms[name]
	return ok
}

// Registry is a concurrency-safe, get-or-create metrics namespace. The
// zero value is not usable; call NewRegistry. A nil *Registry hands out
// nil instruments, so a disabled registry costs one nil check per
// operation on the instrumented path.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	// runtimeMetrics, when set via EnableRuntimeMetrics, makes Snapshot
	// sample the runtime.* process-health gauges first.
	runtimeMetrics bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bounds on first use. An existing histogram keeps its original
// bounds. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot copies the current value of every registered metric. With
// EnableRuntimeMetrics set, the runtime.* process-health gauges are
// refreshed first so every snapshot carries current goroutine and heap
// numbers.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	sample := r.runtimeMetrics
	r.mu.Unlock()
	if sample {
		r.sampleRuntime()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// WriteJSON writes an indented JSON snapshot of the registry to w (map
// keys are emitted sorted, so output is deterministic for fixed values).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteFile writes the JSON snapshot to path, truncating any existing
// file.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create %s: %w", path, err)
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write %s: %w", path, err)
	}
	return f.Close()
}

// PublishExpvar publishes the registry under the given expvar name as a
// Func returning the live snapshot. Publishing the same name twice is a
// no-op (expvar itself panics on duplicates), so the registry bound to a
// name is the one published first. No-op on a nil registry.
func (r *Registry) PublishExpvar(name string) {
	if r == nil || expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
