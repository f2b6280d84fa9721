package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records the benchmark's own spans around its calls into each
// layer. Spans stay in memory until write; a nil *tracer records nothing,
// which is how the untraced run and the verifier share the replay code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// span is one recorded interval: which call, when, caused by which span,
// and the operation (one replayed refine or compress, one client request)
// it belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     string `json:"op"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the tracer's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id for end and for children.
func (t *tracer) start(op, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNs: int64(now)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = int64(now)
	return time.Duration(s.EndNs - s.StartNs)
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
