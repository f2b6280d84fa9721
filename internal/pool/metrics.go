package pool

import (
	"fmt"
	"sync/atomic"
	"time"

	"pmgard/internal/obs"
)

// Metrics instruments one named fan-out site ("decompose", "fetch", ...)
// of the pool. All instruments are nil-safe, so a Metrics built over a
// disabled registry observes nothing; a nil *Metrics passed to Run or
// RunChunks skips the telemetry wrapper entirely.
//
// Metric names under NewMetrics(o, name):
//
//	pool.<name>.submitted            counter — tasks handed to the pool
//	pool.<name>.completed            counter — tasks that ran to completion
//	pool.<name>.queue_depth          gauge   — tasks submitted but not yet started
//	pool.<name>.wait_seconds         histogram — fan-out entry → task start
//	pool.<name>.task_seconds         histogram — task execution time
//	pool.<name>.worker<i>.tasks      counter — tasks executed by worker i
//	pool.<name>.worker<i>.busy_seconds gauge — execution time accumulated by worker i
type Metrics struct {
	o    *obs.Obs
	name string

	// Submitted counts tasks handed to the pool across all runs on this
	// site.
	Submitted *obs.Counter
	// Completed counts tasks that ran to completion (error or not).
	Completed *obs.Counter
	// QueueDepth tracks tasks submitted but not yet started.
	QueueDepth *obs.Gauge
	// Wait is the fan-out-entry → task-start latency histogram.
	Wait *obs.Histogram
	// Task is the task execution-time histogram.
	Task *obs.Histogram
}

// NewMetrics builds (or rebinds to) the pool instruments of one fan-out
// site in o's registry. Returns nil on a nil or metrics-less o, which
// makes Run skip the telemetry wrapper.
func NewMetrics(o *obs.Obs, name string) *Metrics {
	if o == nil || o.Metrics == nil {
		return nil
	}
	prefix := "pool." + name
	return &Metrics{
		o:          o,
		name:       name,
		Submitted:  o.Counter(prefix + ".submitted"),
		Completed:  o.Counter(prefix + ".completed"),
		QueueDepth: o.Gauge(prefix + ".queue_depth"),
		Wait:       o.Histogram(prefix+".wait_seconds", obs.LatencyBuckets()),
		Task:       o.Histogram(prefix+".task_seconds", obs.LatencyBuckets()),
	}
}

// worker returns the per-worker instruments, creating them on
// first use. Worker counts are small (≤ GOMAXPROCS), so the Sprintf per
// task is the dominant cost and only paid when metrics are enabled.
func (m *Metrics) worker(w int) (*obs.Counter, *obs.Gauge) {
	prefix := fmt.Sprintf("pool.%s.worker%d", m.name, w)
	return m.o.Counter(prefix + ".tasks"), m.o.Gauge(prefix + ".busy_seconds")
}

// observe wraps fn with the per-task telemetry of one n-task fan-out:
// queue depth, wait time from fan-out entry to task start, task duration
// overall and per worker, and submitted/completed counts. The returned
// drain must run when the fan-out returns: tasks skipped because the
// context ended are taken off the queue-depth gauge there, so a cancelled
// run never leaves the gauge stuck above zero.
func (m *Metrics) observe(n int, fn func(worker, i int) error) (wrapped func(worker, i int) error, drain func()) {
	m.Submitted.Add(int64(n))
	m.QueueDepth.Add(float64(n))
	var started atomic.Int64
	entry := time.Now()
	wrapped = func(worker, i int) error {
		start := time.Now()
		started.Add(1)
		m.QueueDepth.Add(-1)
		m.Wait.Observe(start.Sub(entry).Seconds())
		err := fn(worker, i)
		dur := time.Since(start).Seconds()
		m.Task.Observe(dur)
		tasks, busy := m.worker(worker)
		tasks.Add(1)
		busy.Add(dur)
		m.Completed.Add(1)
		return err
	}
	drain = func() {
		if skipped := int64(n) - started.Load(); skipped > 0 {
			m.QueueDepth.Add(-float64(skipped))
		}
	}
	return wrapped, drain
}
