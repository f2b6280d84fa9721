// Package resilience provides the serving tier's overload- and
// failure-containment primitives: an admission controller that bounds
// in-flight work with a bounded wait queue (overflow is shed instead of
// degrading everyone), and a circuit breaker that stops hammering a dead
// storage tier with per-request retry budgets (closed → open → half-open
// over the storage package's fault classification).
//
// Both primitives are transport-agnostic: the admission controller admits
// any unit of work behind a context, and the breaker wraps any
// storage.SegmentSource (Guard assembles the breaker-over-retry stack).
// internal/serve composes them around /refine; DESIGN.md §11 documents the
// policy.
package resilience

import (
	"context"
	"errors"
	"sync/atomic"

	"pmgard/internal/obs"
)

// Shed/fast-fail sentinels. Handlers map these to HTTP statuses: ErrShed
// and ErrOpen are retryable server conditions (503 + Retry-After), distinct
// from upstream faults (502) and deadline expiry (504).
var (
	// ErrShed marks a request rejected by admission control because the
	// in-flight limit and the wait queue were both full.
	ErrShed = errors.New("resilience: request shed, admission queue full")
	// ErrOpen marks a read refused because the source's circuit breaker is
	// open — the tier has failed enough consecutive reads that further
	// attempts are pointless until the cooldown expires.
	ErrOpen = errors.New("resilience: circuit breaker open")
)

// Admission is a two-stage admission controller: up to maxInflight units of
// work run concurrently, up to maxQueue more wait for a slot, and anything
// beyond that is shed immediately with ErrShed. Waiters are bounded by
// their context, so a queued request whose deadline expires leaves the
// queue instead of occupying it. A nil *Admission admits everything —
// callers need no branch for the "unlimited" configuration.
type Admission struct {
	sem      chan struct{}
	maxQueue int64
	// queued is the authoritative wait-queue occupancy: the bound check is
	// an atomic add-then-compare, so the queue can never exceed maxQueue
	// even under concurrent Acquire storms. queueDepth mirrors it for
	// metrics snapshots.
	queued atomic.Int64

	admitted   *obs.Counter
	shed       *obs.Counter
	inflight   *obs.Gauge
	queueDepth *obs.Gauge
}

// NewAdmission returns an admission controller bounding concurrency to
// maxInflight with a wait queue of maxQueue. maxInflight <= 0 returns nil
// (admit everything); maxQueue < 0 is treated as 0 (no queue: a full server
// sheds instantly). The controller counts in o's registry (a private one
// when o carries none): serve.admitted and serve.shed counters,
// serve.inflight and serve.queue_depth gauges.
func NewAdmission(maxInflight, maxQueue int, o *obs.Obs) *Admission {
	if maxInflight <= 0 {
		return nil
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	m := o.Registry()
	return &Admission{
		sem:        make(chan struct{}, maxInflight),
		maxQueue:   int64(maxQueue),
		admitted:   m.Counter("serve.admitted"),
		shed:       m.Counter("serve.shed"),
		inflight:   m.Gauge("serve.inflight"),
		queueDepth: m.Gauge("serve.queue_depth"),
	}
}

// Acquire admits one unit of work, blocking in the wait queue when the
// in-flight limit is reached. On success it returns a release function that
// must be called exactly once when the work finishes. It returns ErrShed
// when the queue is full, and ctx's error when the caller's context ends
// while queued. A nil receiver admits immediately.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	if a == nil {
		return func() {}, nil
	}
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		a.inflight.Add(1)
		return a.release, nil
	default:
	}
	if a.queued.Add(1) > a.maxQueue {
		a.queued.Add(-1)
		a.shed.Add(1)
		return nil, ErrShed
	}
	a.queueDepth.Add(1)
	defer func() {
		a.queued.Add(-1)
		a.queueDepth.Add(-1)
	}()
	select {
	case a.sem <- struct{}{}:
		a.admitted.Add(1)
		a.inflight.Add(1)
		return a.release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// release returns one in-flight slot; it is the function Acquire hands out.
func (a *Admission) release() {
	<-a.sem
	a.inflight.Add(-1)
}

// AdmissionStats is a point-in-time view over the admission instruments,
// for tests and CLI reporting.
type AdmissionStats struct {
	// Admitted is the number of Acquire calls that obtained a slot.
	Admitted int64
	// Shed is the number of Acquire calls rejected with ErrShed.
	Shed int64
	// Inflight is the number of admitted units not yet released.
	Inflight int64
	// Queued is the number of callers currently waiting for a slot.
	Queued int64
}

// Stats returns a snapshot of the admission counters. A nil receiver
// returns zeros.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		Admitted: a.admitted.Value(),
		Shed:     a.shed.Value(),
		Inflight: int64(a.inflight.Value()),
		Queued:   a.queued.Load(),
	}
}
