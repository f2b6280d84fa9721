package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestSpanNestingAndOrderingInDump(t *testing.T) {
	tr := NewTracer(0)
	root := tr.Start("run", nil)
	a := root.Child("stage.a")
	aa := a.Child("stage.a.inner")
	time.Sleep(time.Millisecond)
	aa.End()
	a.End()
	b := root.Child("stage.b")
	b.SetAttr("level", 3)
	b.SetAttr("what", "fetch")
	b.End()
	root.End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump TraceDump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("trace dump does not round-trip: %v", err)
	}
	if len(dump.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(dump.Spans))
	}
	byName := make(map[string]SpanRecord)
	for _, s := range dump.Spans {
		byName[s.Name] = s
	}
	// Parent links: run is the root; a and b hang off run; inner off a.
	if byName["run"].Parent != 0 {
		t.Fatalf("root has parent %d", byName["run"].Parent)
	}
	if byName["stage.a"].Parent != byName["run"].ID {
		t.Fatal("stage.a not parented to run")
	}
	if byName["stage.a.inner"].Parent != byName["stage.a"].ID {
		t.Fatal("inner not parented to stage.a")
	}
	if byName["stage.b"].Parent != byName["run"].ID {
		t.Fatal("stage.b not parented to run")
	}
	// Attributes survive the dump.
	if got := byName["stage.b"].Attrs["level"]; got != float64(3) {
		t.Fatalf("attr level = %v, want 3", got)
	}
	if got := byName["stage.b"].Attrs["what"]; got != "fetch" {
		t.Fatalf("attr what = %v, want fetch", got)
	}
	// Timeline ordering: starts are non-decreasing.
	for i := 1; i < len(dump.Spans); i++ {
		if dump.Spans[i].StartNs < dump.Spans[i-1].StartNs {
			t.Fatalf("timeline out of order at %d", i)
		}
	}
	// A child's interval nests inside its parent's.
	par, ch := byName["stage.a"], byName["stage.a.inner"]
	if ch.StartNs < par.StartNs || ch.StartNs+ch.DurNs > par.StartNs+par.DurNs+int64(time.Millisecond) {
		t.Fatalf("child interval escapes parent: parent [%d,+%d], child [%d,+%d]",
			par.StartNs, par.DurNs, ch.StartNs, ch.DurNs)
	}
	// Stage table aggregates by name.
	stages := make(map[string]StageStat)
	for _, s := range dump.Stages {
		stages[s.Name] = s
	}
	if stages["stage.a.inner"].Count != 1 || stages["stage.a.inner"].TotalNs < int64(time.Millisecond) {
		t.Fatalf("stage table wrong for inner: %+v", stages["stage.a.inner"])
	}
}

func TestTracerBoundDropsBeyondLimit(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		tr.Start("s", nil).End()
	}
	if got := len(tr.Timeline()); got != 2 {
		t.Fatalf("retained %d spans, want 2", got)
	}
	if got := tr.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
}

func TestSpanDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer(0)
	s := tr.Start("once", nil)
	s.End()
	s.End()
	if got := len(tr.Timeline()); got != 1 {
		t.Fatalf("recorded %d spans, want 1", got)
	}
}

// TestSpansOfATraceShareOneClock ends a tree of spans at one instant: on
// one monotonic base every span then ends at the same nanosecond as its
// root and starts no earlier. Stamping each start with its own wall reading
// instead shifts each span by that reading's few-ns skew against the
// monotonic clock, so some child ends after its root.
func TestSpansOfATraceShareOneClock(t *testing.T) {
	tr := NewTracer(0)
	spans := []*Span{tr.StartTrace("root", "0123456789abcdef0123456789abcdef")}
	for i := 0; i < 256; i++ {
		spans = append(spans, spans[i/2].Child("child"))
	}
	end := time.Now()
	for i := len(spans) - 1; i >= 0; i-- {
		spans[i].EndAt(end)
	}
	recs := tr.Timeline()
	var root SpanRecord
	for _, rec := range recs {
		if rec.Parent == 0 {
			root = rec
		}
	}
	for _, rec := range recs {
		if rec.StartNs < root.StartNs || rec.StartNs+rec.DurNs != root.StartNs+root.DurNs {
			t.Fatalf("span %d [%d, %d] vs root [%d, %d]: not on the root's clock",
				rec.ID, rec.StartNs, rec.StartNs+rec.DurNs, root.StartNs, root.StartNs+root.DurNs)
		}
	}
}

func TestNilTracerInert(t *testing.T) {
	var tr *Tracer
	s := tr.Start("x", nil)
	s.SetAttr("k", 1)
	s.Child("y").End()
	s.End()
	if tr.Timeline() != nil || tr.Stages() != nil || tr.Dropped() != 0 {
		t.Fatal("nil tracer not inert")
	}
}

func TestDebugEndpointServesSnapshot(t *testing.T) {
	o := New()
	o.Counter("debug.count").Add(5)
	sp := o.Span("debug.stage", nil)
	sp.End()
	srv := httptest.NewServer(NewDebugMux(o))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap DebugSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Metrics.Counters["debug.count"] != 5 {
		t.Fatalf("served counter = %d, want 5", snap.Metrics.Counters["debug.count"])
	}
	if len(snap.Stages) != 1 || snap.Stages[0].Name != "debug.stage" {
		t.Fatalf("served stages = %+v", snap.Stages)
	}

	// The pprof and expvar mounts answer too.
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		r2, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusOK {
			t.Fatalf("%s returned %d", path, r2.StatusCode)
		}
	}
}

func TestServeDebugBindsAndCloses(t *testing.T) {
	o := New()
	srv, addr, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
