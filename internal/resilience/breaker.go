package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pmgard/internal/obs"
	"pmgard/internal/storage"
)

// State is a circuit breaker's position.
type State int32

// Breaker states, in gauge order: the storage.breaker_state gauge reports
// the numeric value, so dashboards read 0 = closed, 1 = open, 2 = half-open.
const (
	// StateClosed passes every read through; consecutive failures are
	// counted toward the trip threshold.
	StateClosed State = iota
	// StateOpen fails every read fast with ErrOpen until the cooldown
	// expires.
	StateOpen
	// StateHalfOpen lets a bounded number of probe reads through; a probe
	// failure re-opens, enough probe successes close.
	StateHalfOpen
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case StateClosed:
		return "closed"
	case StateOpen:
		return "open"
	case StateHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// BreakerConfig describes a Breaker — the one description every wiring
// uses, whether the breaker guards a field's local store or a shard node.
type BreakerConfig struct {
	// FailureThreshold is the number of consecutive failed reads that trips
	// the breaker open. Values below 1 mean no breaker: NewBreaker returns
	// nil, and a nil *Breaker gates nothing.
	FailureThreshold int
	// Cooldown is how long an open breaker refuses reads before letting a
	// half-open probe through. 0 means the default of 2s.
	Cooldown time.Duration
	// Now replaces time.Now for the cooldown clock; tests use it to step
	// time deterministically. nil means time.Now.
	Now func() time.Time
}

// halfOpenProbes is both the number of concurrent probe reads a half-open
// breaker admits and the successes required to close it.
const halfOpenProbes = 1

// Breaker is a consecutive-failure circuit breaker over a segment source.
// Closed, it passes reads through and counts consecutive failures (any
// fault class — a dead tier surfaces as either retry exhaustion or
// permanent errors; successes reset the count, so an isolated lost plane
// among healthy reads never trips it). At the threshold it opens: every
// read fails fast with ErrOpen instead of burning the per-request retry
// budget against a dead tier. After the cooldown it half-opens, letting a
// bounded number of probe reads through — a probe failure re-opens, enough
// successes close.
//
// Context cancellation errors (context.Canceled, context.DeadlineExceeded)
// are the caller's fault, not the tier's: Record ignores them, so client
// timeouts can never trip a breaker on a healthy source.
//
// A Breaker is safe for concurrent use. Every Allow that returns nil must
// be followed by exactly one Record with the read's outcome.
type Breaker struct {
	cfg BreakerConfig

	mu       sync.Mutex
	state    State
	failures int       // consecutive failures while closed
	openedAt time.Time // trip time of the current open period
	probes   int       // in-flight probe reads while half-open
	probeOK  int       // successful probes this half-open period

	stateG    *obs.Gauge
	opened    *obs.Counter
	halfOpens *obs.Counter
	closedC   *obs.Counter
	fastFails *obs.Counter
}

// NewBreaker returns a closed breaker under cfg, or nil — no breaker — when
// cfg.FailureThreshold is below 1. Guard, Instrument and RetryAfter accept
// the nil, so callers need no branch for the disabled configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold < 1 {
		return nil
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{
		cfg:       cfg,
		stateG:    new(obs.Gauge),
		opened:    new(obs.Counter),
		halfOpens: new(obs.Counter),
		closedC:   new(obs.Counter),
		fastFails: new(obs.Counter),
	}
}

// Instrument rebinds the breaker instruments to shared, registry-named ones
// in o. The state gauge is "storage.breaker_state" (suffixed ".<source>"
// when source is non-empty, so multi-field servers get one gauge per tier);
// the transition counters live under "resilience.breaker[.<source>].":
// opened, half_opens, closed, fast_fails. Call before the breaker is shared
// across goroutines; a nil receiver or a nil or metrics-less o is a no-op.
func (b *Breaker) Instrument(o *obs.Obs, source string) {
	if b == nil || o == nil || o.Metrics == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	gaugeName := "storage.breaker_state"
	prefix := "resilience.breaker"
	if source != "" {
		gaugeName += "." + source
		prefix += "." + source
	}
	g := o.Gauge(gaugeName)
	g.Set(float64(b.state))
	b.stateG = g
	bind := func(dst **obs.Counter, name string) {
		c := o.Counter(prefix + "." + name)
		c.Add((*dst).Value())
		*dst = c
	}
	bind(&b.opened, "opened")
	bind(&b.halfOpens, "half_opens")
	bind(&b.closedC, "closed")
	bind(&b.fastFails, "fast_fails")
}

// State returns the breaker's current position, advancing an expired open
// period to half-open first so callers never observe a stale open.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	return b.state
}

// RetryAfter returns how long the breaker will keep refusing reads — the
// cooldown remaining on the current open period — and 0 when the breaker
// is not open (or nil). Serving layers derive 503 Retry-After headers from
// it, so a well-behaved client backs off for exactly as long as the breaker
// will reject it rather than a hardcoded constant.
func (b *Breaker) RetryAfter() time.Duration {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	if b.state != StateOpen {
		return 0
	}
	d := b.cfg.Cooldown - b.cfg.Now().Sub(b.openedAt)
	if d < 0 {
		d = 0
	}
	return d
}

// advanceLocked moves an open breaker whose cooldown has expired to
// half-open. b.mu must be held.
func (b *Breaker) advanceLocked() {
	if b.state == StateOpen && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.setStateLocked(StateHalfOpen)
		b.halfOpens.Add(1)
		b.probes, b.probeOK = 0, 0
	}
}

// setStateLocked records a state transition. b.mu must be held.
func (b *Breaker) setStateLocked(s State) {
	b.state = s
	b.stateG.Set(float64(s))
}

// tripLocked opens the breaker and starts its cooldown. b.mu must be held.
func (b *Breaker) tripLocked() {
	b.setStateLocked(StateOpen)
	b.openedAt = b.cfg.Now()
	b.failures = 0
	b.probes, b.probeOK = 0, 0
	b.opened.Add(1)
}

// Allow asks whether a read may proceed. nil means yes — the caller must
// Record the outcome; ErrOpen means the breaker refused (fail fast, do not
// Record).
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advanceLocked()
	switch b.state {
	case StateClosed:
		return nil
	case StateHalfOpen:
		if b.probes < halfOpenProbes {
			b.probes++
			return nil
		}
	}
	b.fastFails.Add(1)
	return ErrOpen
}

// Record reports the outcome of a read Allow admitted. A nil err is a
// success; two classes of error count as neither success nor failure:
// context cancellation (attributed to the caller, not the store) and
// permanent data faults (a lost or quarantined plane is the store answering
// authoritatively — the tier is up, the data is gone, and the session's
// degraded-serving path handles it; opening the breaker would turn graceful
// degradation into blanket unavailability).
func (b *Breaker) Record(err error) {
	callerFault := err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			storage.Classify(err) == storage.FaultPermanent)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case StateHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if callerFault {
			return
		}
		if err != nil {
			b.tripLocked()
			return
		}
		b.probeOK++
		if b.probeOK >= halfOpenProbes {
			b.setStateLocked(StateClosed)
			b.failures = 0
			b.closedC.Add(1)
		}
	case StateClosed:
		if callerFault {
			return
		}
		if err == nil {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.tripLocked()
		}
	case StateOpen:
		// A straggler read admitted before the trip landed; the open period
		// already superseded whatever it observed.
	}
}

// BreakerStats is a point-in-time view over the breaker counters.
type BreakerStats struct {
	// State is the current breaker position.
	State State
	// Opened is the number of closed/half-open → open transitions.
	Opened int64
	// HalfOpens is the number of open → half-open transitions.
	HalfOpens int64
	// Closed is the number of half-open → closed transitions.
	Closed int64
	// FastFails is the number of reads refused with ErrOpen.
	FastFails int64
}

// Stats returns a snapshot of the breaker counters.
func (b *Breaker) Stats() BreakerStats {
	return BreakerStats{
		State:     b.State(),
		Opened:    b.opened.Value(),
		HalfOpens: b.halfOpens.Value(),
		Closed:    b.closedC.Value(),
		FastFails: b.fastFails.Value(),
	}
}

// Guard composes the read-side resilience stack over src — the one place
// it is assembled, for a field's local store and for each shard node's
// HTTP source alike. Retries sit closest to the source (retry.MaxAttempts
// below 1 means no retry layer), the breaker above them: its unit of
// failure is "the whole retry budget burned", so one dead-tier request
// costs one breaker failure, and once open, later requests skip the budget
// entirely. A nil b adds no breaker; the retry layer's counters bind to o.
//
// The unit the stack guards is a read of src: a segment, or — when src is a
// storage.RunSource, as a shard node's is — a run of planes fetched by one
// request. Every layer forwards Run, so the result is a storage.RunSource
// whenever src is: one budget, one breaker verdict and one span per run,
// under the identity of its first plane.
func Guard(src storage.SegmentSource, retry storage.RetryPolicy, b *Breaker, o *obs.Obs) storage.SegmentSource {
	if retry.MaxAttempts > 0 {
		retrying := storage.NewRetryingSource(src, retry)
		retrying.Instrument(o)
		src = retrying
	}
	if b != nil {
		src = BreakerSource{Src: src, Breaker: b}
	}
	return src
}

// BreakerSource gates a segment source behind a Breaker: reads ask Allow
// first (failing fast with ErrOpen while the breaker is open) and report
// their outcome to Record. Guard is what builds one.
type BreakerSource struct {
	// Src is the wrapped source.
	Src storage.SegmentSource
	// Breaker gates the reads; must be non-nil.
	Breaker *Breaker
}

// Segment implements storage.SegmentSource through the breaker,
// forwarding ctx to the wrapped source.
func (b BreakerSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	return b.gate(ctx, level, plane, func() ([]byte, error) { return b.Src.Segment(ctx, level, plane) })
}

// Run implements storage.RunSource through the breaker over a wrapped
// RunSource: the run is admitted and recorded as one read.
func (b BreakerSource) Run(ctx context.Context, level int, planes []int) ([]byte, error) {
	src, ok := b.Src.(storage.RunSource)
	if !ok || len(planes) == 0 {
		return nil, fmt.Errorf("resilience: %T cannot read a run of %d planes: %w", b.Src, len(planes), storage.ErrPermanent)
	}
	return b.gate(ctx, level, planes[0], func() ([]byte, error) { return src.Run(ctx, level, planes) })
}

// gate runs one read — the segment (level, plane), or a run starting there
// — between the breaker's Allow and Record.
func (b BreakerSource) gate(ctx context.Context, level, plane int, read func() ([]byte, error)) ([]byte, error) {
	if err := b.Breaker.Allow(); err != nil {
		// A span only on rejection: a pass-through read is fully described
		// by the storage.read span underneath, but a breaker-open fast-fail
		// never reaches storage and would otherwise vanish from the trace.
		sp := obs.SpanFromContext(ctx).Child("breaker.reject")
		sp.SetAttr("level", level)
		sp.SetAttr("plane", plane)
		sp.SetStatus(obs.StatusError)
		sp.End()
		return nil, fmt.Errorf("resilience: read level %d plane %d: %w", level, plane, err)
	}
	var payload []byte
	err := ctx.Err()
	if err == nil {
		payload, err = read()
	}
	b.Breaker.Record(err)
	return payload, err
}
