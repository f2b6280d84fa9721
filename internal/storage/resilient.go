package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pmgard/internal/obs"
)

// Fault-class sentinels. Error producers (the stores in this package, the
// fault injectors in internal/faults, or any user-supplied SegmentSource)
// wrap their errors with one of these so the retry layer and the degraded
// retrieval path in internal/core can tell a blip from a loss:
//
//   - ErrTransient marks failures worth retrying — flaky interconnects,
//     timeouts, throttled tiers.
//   - ErrPermanent marks failures no retry will fix — a deleted level file,
//     an evicted tape segment. RetryingSource quarantines these and
//     Session.Refine degrades around them.
//   - ErrCorrupt marks payloads whose checksum did not match. On-disk
//     corruption is not repaired by re-reading, so it classifies as
//     permanent.
var (
	// ErrTransient marks a read failure that a retry may fix.
	ErrTransient = errors.New("storage: transient read fault")
	// ErrPermanent marks a read failure no retry will fix.
	ErrPermanent = errors.New("storage: permanent read fault")
	// ErrCorrupt marks a payload that failed checksum verification.
	ErrCorrupt = errors.New("storage: payload corruption detected")
)

// FaultClass is the retry layer's verdict on a read error.
type FaultClass int

const (
	// FaultTransient errors are retried with backoff.
	FaultTransient FaultClass = iota
	// FaultPermanent errors are quarantined: the (level, plane) is marked
	// unavailable and every later read fails fast.
	FaultPermanent
)

// Classify maps a read error to its fault class. Explicitly marked
// permanent errors, checksum mismatches and missing files are permanent;
// everything else — including unmarked errors from sources that predate
// the fault sentinels — is treated as transient, the conservative choice
// (a pointless retry costs milliseconds, a wrong quarantine loses data).
func Classify(err error) FaultClass {
	switch {
	case errors.Is(err, ErrPermanent),
		errors.Is(err, ErrCorrupt),
		errors.Is(err, os.ErrNotExist):
		return FaultPermanent
	default:
		return FaultTransient
	}
}

// RetryPolicy bounds the retry loop of a RetryingSource.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per read (first attempt
	// included). Values below 1 mean the default of 8.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it. 0 means the default of 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff. 0 means the default of 100ms.
	MaxDelay time.Duration
	// Timeout is the per-read deadline; a read exceeding it counts as a
	// transient failure. 0 disables the deadline.
	Timeout time.Duration
	// JitterSeed seeds the deterministic backoff jitter so tests are
	// reproducible. 0 uses a fixed default seed.
	JitterSeed int64
	// Sleep replaces the backoff sleep between retries; tests use it to
	// avoid real delays. nil means a real timer that context cancellation
	// interrupts; a custom Sleep is called as-is
	// and only checked for cancellation after it returns.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is tuned for the paper's storage hierarchy: at the
// default rates a 20% transient fault rate fails a read end-to-end with
// probability 0.2^8 ≈ 3e-6, while the worst-case added latency per read
// stays under a second.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   time.Millisecond,
		MaxDelay:    100 * time.Millisecond,
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetryPolicy()
	if p.MaxAttempts < 1 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	return p
}

// RetryStats is a point-in-time view over the retry layer's counters, for
// tests and CLI reporting. The counters themselves live in obs instruments
// (standalone by default, registry-backed after Instrument), so the same
// numbers appear in a -metrics-out snapshot and in this struct.
type RetryStats struct {
	// Reads is the number of Segment calls served (including failures).
	Reads int64
	// Retries is the number of extra attempts issued after a transient
	// failure.
	Retries int64
	// Recovered is the number of reads that failed at least once and then
	// succeeded on a retry.
	Recovered int64
	// Exhausted is the number of reads that failed every attempt.
	Exhausted int64
	// Quarantined is the number of (level, plane) segments marked
	// permanently unavailable.
	Quarantined int64
	// BytesTransferred is the payload bytes delivered by successful reads.
	BytesTransferred int64
	// BytesWasted is the payload bytes fetched by attempts whose result was
	// abandoned (reads that finished after their timeout fired).
	BytesWasted int64
	// BackoffSeconds is the total time spent sleeping between retries.
	BackoffSeconds float64
}

// retryCounters are the live instruments behind RetryStats. The zero-ish
// constructor wires standalone instruments so a RetryingSource counts
// exactly even without a registry; Instrument rebinds them to shared,
// registry-named instruments.
type retryCounters struct {
	reads       *obs.Counter
	retries     *obs.Counter
	recovered   *obs.Counter
	exhausted   *obs.Counter
	quarantined *obs.Counter
	bytesOK     *obs.Counter
	bytesWaste  *obs.Counter
	backoff     *obs.Gauge
}

func newRetryCounters() retryCounters {
	return retryCounters{
		reads:       new(obs.Counter),
		retries:     new(obs.Counter),
		recovered:   new(obs.Counter),
		exhausted:   new(obs.Counter),
		quarantined: new(obs.Counter),
		bytesOK:     new(obs.Counter),
		bytesWaste:  new(obs.Counter),
		backoff:     new(obs.Gauge),
	}
}

// RetryingSource wraps any SegmentSource with per-read timeouts, bounded
// retries with exponential backoff and jitter, context cancellation, and a
// per-(level, plane) failure classifier: transient failures are retried,
// permanent ones are quarantined so later reads of the same plane fail
// fast with an error wrapping ErrPermanent (which the degraded session
// path in internal/core turns into a plane drop instead of a hard
// failure). It is safe for concurrent use.
type RetryingSource struct {
	src SegmentSource
	pol RetryPolicy
	// seed drives the per-attempt derived jitter stream; see backoff.
	seed uint64

	mu          sync.Mutex
	quarantined map[SegmentID]error
	c           retryCounters
}

// NewRetryingSource wraps src under the given policy. Every read and
// backoff sleep is bounded by the ctx of the Segment call it serves.
func NewRetryingSource(src SegmentSource, pol RetryPolicy) *RetryingSource {
	seed := pol.JitterSeed
	if seed == 0 {
		seed = 1
	}
	return &RetryingSource{
		src:         src,
		pol:         pol.withDefaults(),
		seed:        uint64(seed),
		quarantined: make(map[SegmentID]error),
		c:           newRetryCounters(),
	}
}

// Instrument rebinds the retry counters to shared instruments in o's
// registry under storage.retry.*, folding in anything counted so far, so a
// metrics snapshot and Stats() report the same numbers. Call it before the
// source is shared across goroutines; instrumenting mid-flight races with
// concurrent reads. A nil or metrics-less o is a no-op.
func (r *RetryingSource) Instrument(o *obs.Obs) {
	if o == nil || o.Metrics == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bind := func(dst **obs.Counter, name string) {
		c := o.Counter("storage.retry." + name)
		c.Add((*dst).Value())
		*dst = c
	}
	bind(&r.c.reads, "reads")
	bind(&r.c.retries, "retries")
	bind(&r.c.recovered, "recovered")
	bind(&r.c.exhausted, "exhausted")
	bind(&r.c.quarantined, "quarantined")
	bind(&r.c.bytesOK, "bytes_transferred")
	bind(&r.c.bytesWaste, "bytes_wasted")
	g := o.Gauge("storage.retry.backoff_seconds")
	g.Add(r.c.backoff.Value())
	r.c.backoff = g
}

// Segment implements SegmentSource with the retry protocol, bounded by
// ctx: its end cancels the in-flight read and interrupts the backoff sleep,
// so a caller abandoning a request (deadline expiry, client disconnect)
// stops burning attempts against the tier immediately.
//
// When ctx carries a request span, the whole read (attempts, backoff and
// all) records as one "storage.read" child span with level/plane/bytes
// attributes and a failure status on error.
func (r *RetryingSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	return r.guard(ctx, SegmentID{Level: level, Plane: plane}, 1, func(ctx context.Context) ([]byte, error) {
		return r.src.Segment(ctx, level, plane)
	})
}

// Run implements RunSource over a wrapped RunSource: the whole run is one
// read of the retry protocol — one budget, one "storage.read" span (with a
// planes attribute), jitter and quarantine keyed by the run's first plane,
// the plane a permanent error speaks for.
func (r *RetryingSource) Run(ctx context.Context, level int, planes []int) ([]byte, error) {
	src, ok := r.src.(RunSource)
	if !ok || len(planes) == 0 {
		return nil, fmt.Errorf("storage: %T cannot read a run of %d planes: %w", r.src, len(planes), ErrPermanent)
	}
	return r.guard(ctx, SegmentID{Level: level, Plane: planes[0]}, len(planes), func(ctx context.Context) ([]byte, error) {
		return src.Run(ctx, level, planes)
	})
}

// guard runs one read — a segment, or a run of `planes` planes starting at
// id — under the retry protocol and its span.
func (r *RetryingSource) guard(ctx context.Context, id SegmentID, planes int, read func(context.Context) ([]byte, error)) ([]byte, error) {
	sp := obs.SpanFromContext(ctx).Child("storage.read")
	if sp == nil {
		return r.retry(ctx, id, read)
	}
	sp.SetAttr("level", id.Level)
	sp.SetAttr("plane", id.Plane)
	if planes > 1 {
		sp.SetAttr("planes", planes)
	}
	payload, err := r.retry(ctx, id, read)
	sp.SetAttr("bytes", len(payload))
	sp.Fail(err)
	sp.End()
	return payload, err
}

// retry is the span-free retry protocol behind Segment and Run.
func (r *RetryingSource) retry(ctx context.Context, id SegmentID, read func(context.Context) ([]byte, error)) ([]byte, error) {
	level, plane := id.Level, id.Plane
	r.c.reads.Add(1)
	r.mu.Lock()
	if qerr, ok := r.quarantined[id]; ok {
		r.mu.Unlock()
		return nil, qerr
	}
	r.mu.Unlock()

	var last error
	for attempt := 1; attempt <= r.pol.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("storage: read level %d plane %d: %w", level, plane, err)
		}
		payload, err := r.readOnce(ctx, id, read)
		if err == nil {
			r.c.bytesOK.Add(int64(len(payload)))
			if attempt > 1 {
				r.c.recovered.Add(1)
			}
			return payload, nil
		}
		last = err
		if Classify(err) == FaultPermanent {
			qerr := fmt.Errorf("storage: level %d plane %d quarantined: %w: %w", level, plane, ErrPermanent, err)
			r.mu.Lock()
			r.quarantined[id] = qerr
			r.mu.Unlock()
			r.c.quarantined.Add(1)
			return nil, qerr
		}
		if attempt < r.pol.MaxAttempts {
			r.c.retries.Add(1)
			d := r.backoff(level, plane, attempt)
			r.c.backoff.Add(d.Seconds())
			if err := r.sleep(ctx, d); err != nil {
				return nil, fmt.Errorf("storage: read level %d plane %d: %w", level, plane, err)
			}
		}
	}
	r.c.exhausted.Add(1)
	return nil, fmt.Errorf("storage: level %d plane %d failed after %d attempts: %w",
		level, plane, r.pol.MaxAttempts, last)
}

// sleep waits out one backoff delay. A custom policy Sleep runs as-is
// (tests rely on it being called exactly once per retry) and cancellation
// is only observed after it returns; the default real-timer path is
// interrupted by ctx immediately.
func (r *RetryingSource) sleep(ctx context.Context, d time.Duration) error {
	if r.pol.Sleep != nil {
		r.pol.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// readOnce issues a single attempt, bounded by the per-read timeout and
// ctx. The wrapped source gets ctx too, so trace values and cancellation
// reach the read itself, not just the select below. When something can time out or cancel, the
// read runs in its own goroutine so a hung tier cannot stall the retriever;
// an abandoned read finishes (and is discarded) in the background.
func (r *RetryingSource) readOnce(ctx context.Context, id SegmentID, read func(context.Context) ([]byte, error)) ([]byte, error) {
	level, plane := id.Level, id.Plane
	if r.pol.Timeout <= 0 && ctx.Done() == nil {
		return read(ctx)
	}
	type result struct {
		payload []byte
		err     error
	}
	ch := make(chan result, 1)
	var abandoned atomic.Bool
	go func() {
		p, err := read(ctx)
		// An abandoned read still moved payload bytes off the tier; account
		// them as waste so fetched-byte totals reflect real transfer cost.
		// (A read finishing in the instant between the timeout firing and
		// the flag store goes uncounted — acceptable telemetry slack.)
		if abandoned.Load() {
			r.c.bytesWaste.Add(int64(len(p)))
		}
		// Non-blocking send: once the caller has taken the timeout or
		// cancellation branch nobody ever receives, and a blocking send
		// would pin this goroutine (and the payload) forever. The buffer
		// makes the default branch unreachable today, but the send must
		// not rely on that.
		select {
		case ch <- result{p, err}:
		default:
		}
	}()
	var timeout <-chan time.Time
	if r.pol.Timeout > 0 {
		t := time.NewTimer(r.pol.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case res := <-ch:
		return res.payload, res.err
	case <-timeout:
		abandoned.Store(true)
		return nil, fmt.Errorf("storage: read level %d plane %d timed out after %v: %w",
			level, plane, r.pol.Timeout, ErrTransient)
	case <-ctx.Done():
		abandoned.Store(true)
		return nil, fmt.Errorf("storage: read level %d plane %d: %w", level, plane, ctx.Err())
	}
}

// backoff returns the exponential equal-jitter delay before retry
// `attempt` (1-based) of a read of (level, plane): base·2^(attempt-1)
// capped at MaxDelay, scaled into [½, 1) by a jitter fraction derived
// statelessly from the seed and the read's coordinates. Deriving the
// fraction per attempt instead of drawing from a shared rand.Rand keeps
// every read's backoff schedule a pure function of the seed: concurrent
// sessions retrying different planes can no longer interleave draws and
// perturb each other's schedules, so seed-determinism survives
// concurrency (and the draw needs no lock).
func (r *RetryingSource) backoff(level, plane, attempt int) time.Duration {
	d := r.pol.BaseDelay << uint(attempt-1)
	if d <= 0 || d > r.pol.MaxDelay {
		d = r.pol.MaxDelay
	}
	frac := 0.5 + 0.5*jitterFrac(r.seed, level, plane, attempt)
	return time.Duration(float64(d) * frac)
}

// jitterFrac hashes (seed, level, plane, attempt) to a uniform fraction in
// [0, 1) using splitmix64 finalizer rounds — cheap, stateless, and stable
// across processes.
func jitterFrac(seed uint64, level, plane, attempt int) float64 {
	x := seed
	for _, v := range [...]uint64{uint64(level), uint64(plane), uint64(attempt)} {
		x += 0x9e3779b97f4a7c15 + v
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return float64(x>>11) / (1 << 53)
}

// Stats returns a snapshot of the retry counters.
func (r *RetryingSource) Stats() RetryStats {
	return RetryStats{
		Reads:            r.c.reads.Value(),
		Retries:          r.c.retries.Value(),
		Recovered:        r.c.recovered.Value(),
		Exhausted:        r.c.exhausted.Value(),
		Quarantined:      r.c.quarantined.Value(),
		BytesTransferred: r.c.bytesOK.Value(),
		BytesWasted:      r.c.bytesWaste.Value(),
		BackoffSeconds:   r.c.backoff.Value(),
	}
}

// Quarantined returns the segments marked permanently unavailable so far,
// in no particular order.
func (r *RetryingSource) Quarantined() []SegmentID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SegmentID, 0, len(r.quarantined))
	for id := range r.quarantined {
		out = append(out, id)
	}
	return out
}
