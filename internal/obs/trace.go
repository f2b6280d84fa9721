package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceLimit bounds the in-memory span buffer of a tracer created
// with limit <= 0. 4096 spans comfortably covers a full compress or
// retrieve run at the paper's 5-level × 32-plane configuration.
const DefaultTraceLimit = 4096

// nextSpanID issues span IDs unique across every tracer in the process, so
// span records from per-request tracers can be absorbed into a process-wide
// timeline without parent links colliding.
var nextSpanID atomic.Int64

// Tracer records a bounded in-memory trace of spans. Spans beyond the
// limit are counted as dropped rather than grown — a trace is a debugging
// artifact, not an unbounded log. A nil *Tracer hands out nil spans and
// every span operation on a nil *Span is a no-op.
type Tracer struct {
	limit int
	// droppedC, when bound, mirrors the dropped count into a registry
	// counter (obs.spans_dropped) so buffer saturation is visible in
	// metrics snapshots, not only in the trace dump.
	droppedC *Counter

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int64
}

// NewTracer returns a tracer that retains at most limit finished spans
// (limit <= 0 means DefaultTraceLimit).
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &Tracer{limit: limit}
}

// BindDroppedCounter mirrors future span drops into c (and folds in any
// drops counted so far), so a registry snapshot carries tracer saturation
// as obs.spans_dropped. No-op on a nil tracer or counter.
func (t *Tracer) BindDroppedCounter(c *Counter) {
	if t == nil || c == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Add(t.dropped)
	t.droppedC = c
}

// Span is one in-flight traced operation. Create with Tracer.Start (or
// Span.Child), attach attributes, then End it exactly once. A nil *Span
// is inert, so callers never need to guard on tracing being enabled.
type Span struct {
	t       *Tracer
	id      int64
	parent  int64
	traceID string
	name    string
	// base is the start of the trace's root span: every span of the trace
	// places its start on base's monotonic clock, anchored to base's one
	// wall reading, so no child can appear to start before or end after
	// its root when the wall clock steps or is read a few ns apart from
	// the monotonic one.
	base  time.Time
	start time.Time

	mu     sync.Mutex
	attrs  map[string]any
	status string
	ended  bool
}

// Start begins a span under the given parent (nil parent means a root
// span). The span inherits the parent's trace ID. Returns nil on a nil
// tracer.
func (t *Tracer) Start(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	start := time.Now()
	var pid int64
	var traceID string
	base := start
	if parent != nil {
		pid = parent.id
		traceID = parent.traceID
		base = parent.base
	}
	return &Span{
		t:       t,
		id:      nextSpanID.Add(1),
		parent:  pid,
		traceID: traceID,
		name:    name,
		base:    base,
		start:   start,
	}
}

// StartTrace begins a root span stamped with the given trace ID; every
// descendant started via Child inherits it, forming one request-scoped
// span tree identifiable across logs, metrics exemplars and the
// /debug/obs/trace view. Returns nil on a nil tracer.
func (t *Tracer) StartTrace(name, traceID string) *Span {
	sp := t.Start(name, nil)
	if sp != nil {
		sp.traceID = traceID
	}
	return sp
}

// Child starts a sub-span of s. Returns nil on a nil span, so span trees
// degrade gracefully when tracing is off.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.Start(name, s)
}

// HexID returns the span's id as 16 hex digits — the W3C span-id form used
// in traceparent headers. Empty on a nil span.
func (s *Span) HexID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(s.id))
}

// TraceID returns the trace id the span belongs to (empty on a nil span or
// outside any trace).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SetStatus records the span's terminal status ("" means ok; the
// StatusCancelled/StatusDeadline/StatusError constants cover the failure
// modes). No-op on a nil or ended span.
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	s.status = status
}

// Fail stamps the span with the status StatusFromErr derives from err; a
// nil err leaves the status untouched, so Fail(err) before End() is safe on
// every return path.
func (s *Span) Fail(err error) {
	if err != nil {
		s.SetStatus(StatusFromErr(err))
	}
}

// SetAttr attaches one key/value attribute to the span. Values should be
// JSON-marshalable (numbers, strings, bools). No-op on a nil or ended
// span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
}

// End finishes the span now and commits it to the tracer's buffer. Ending a
// span twice records it once; ending a nil span is a no-op.
func (s *Span) End() {
	if s != nil {
		s.EndAt(time.Now())
	}
}

// EndAt is End at an instant the caller already read, for a span whose end
// must coincide with another record of the same event — the request's root
// span and its access record share one clock reading, so neither can
// outlast the other.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs, status := s.attrs, s.status
	s.mu.Unlock()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		TraceID: s.traceID,
		Name:    s.name,
		Status:  status,
		StartNs: s.base.UnixNano() + s.start.Sub(s.base).Nanoseconds(),
		DurNs:   end.Sub(s.start).Nanoseconds(),
		Attrs:   attrs,
	}
	s.t.record(rec)
}

// record commits one finished span, counting it as dropped at capacity.
func (t *Tracer) record(rec SpanRecord) {
	t.mu.Lock()
	var droppedC *Counter
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, rec)
	} else {
		t.dropped++
		droppedC = t.droppedC
	}
	t.mu.Unlock()
	droppedC.Add(1)
}

// Absorb copies finished span records — typically a per-request tracer's
// timeline — into this tracer's buffer, subject to the same capacity bound
// as locally recorded spans. Span IDs are process-unique, so parent links
// survive the merge. No-op on a nil tracer.
func (t *Tracer) Absorb(spans []SpanRecord) {
	if t == nil {
		return
	}
	for _, rec := range spans {
		t.record(rec)
	}
}

// SpanRecord is one finished span in the JSON timeline.
type SpanRecord struct {
	// ID is the span's process-unique id.
	ID int64 `json:"id"`
	// Parent is the id of the enclosing span, 0 for roots.
	Parent int64 `json:"parent"`
	// TraceID is the request trace the span belongs to; empty for spans
	// recorded outside any request (batch pipeline stages).
	TraceID string `json:"trace_id,omitempty"`
	// Name is the stage name ("decompose.pass", "storage.segment", ...).
	Name string `json:"name"`
	// Status is the terminal status: empty means ok, otherwise one of the
	// Status* constants ("cancelled", "deadline", "error").
	Status string `json:"status,omitempty"`
	// StartNs is the span start as Unix nanoseconds: its root span's wall
	// reading plus the monotonic time since, so within one trace StartNs
	// differences are monotonic differences.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span duration in nanoseconds.
	DurNs int64 `json:"dur_ns"`
	// Attrs carries the per-span attributes, if any.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Timeline returns the finished spans ordered by start time (ties broken
// by id, so the order is deterministic).
func (t *Tracer) Timeline() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Dropped returns the number of spans discarded because the buffer was
// full.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// StageStat is one row of the flat per-stage duration table: every span
// sharing a name aggregated into count/total/min/max durations.
type StageStat struct {
	// Name is the shared span name.
	Name string `json:"name"`
	// Count is the number of spans with this name.
	Count int64 `json:"count"`
	// TotalNs, MinNs and MaxNs aggregate the span durations.
	TotalNs int64 `json:"total_ns"`
	MinNs   int64 `json:"min_ns"`
	MaxNs   int64 `json:"max_ns"`
}

// Stages aggregates the timeline by span name, sorted by descending total
// duration (ties by name for determinism).
func (t *Tracer) Stages() []StageStat {
	if t == nil {
		return nil
	}
	byName := make(map[string]*StageStat)
	for _, s := range t.Timeline() {
		st, ok := byName[s.Name]
		if !ok {
			st = &StageStat{Name: s.Name, MinNs: s.DurNs, MaxNs: s.DurNs}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalNs += s.DurNs
		if s.DurNs < st.MinNs {
			st.MinNs = s.DurNs
		}
		if s.DurNs > st.MaxNs {
			st.MaxNs = s.DurNs
		}
	}
	out := make([]StageStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TraceDump is the JSON document written by Tracer.WriteJSON: the full
// span timeline plus the aggregated per-stage duration table.
type TraceDump struct {
	// Spans is the timeline ordered by start time.
	Spans []SpanRecord `json:"spans"`
	// Stages is the flat per-stage duration table.
	Stages []StageStat `json:"stages"`
	// Dropped counts spans lost to the buffer bound.
	Dropped int64 `json:"dropped"`
}

// WriteJSON writes the trace dump (timeline + stage table) as indented
// JSON.
func (t *Tracer) WriteJSON(w io.Writer) error {
	dump := TraceDump{Spans: t.Timeline(), Stages: t.Stages(), Dropped: t.Dropped()}
	if dump.Spans == nil {
		dump.Spans = []SpanRecord{}
	}
	if dump.Stages == nil {
		dump.Stages = []StageStat{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// WriteFile writes the trace dump to path, truncating any existing file.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: create %s: %w", path, err)
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: write %s: %w", path, err)
	}
	return f.Close()
}
