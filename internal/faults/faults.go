// Package faults provides deterministic, seedable fault injection for the
// retrieval path: wrappers around a storage.SegmentSource or a storage
// store that inject transient errors, permanently unavailable planes,
// latency, payload corruption and truncation at configurable rates.
//
// Every decision is a pure function of (seed, level, plane, attempt), so a
// given configuration replays the exact same fault sequence on every run
// regardless of timing — the property the resilience tests in
// internal/storage and internal/core rely on. The injected errors carry
// the storage package's fault-class sentinels (storage.ErrTransient,
// storage.ErrPermanent) so the retry/quarantine classifier sees them the
// same way it sees real tier failures.
package faults

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"pmgard/internal/obs"
	"pmgard/internal/storage"
)

// PlaneID names one (level, plane) segment for the permanent-fault set.
type PlaneID struct {
	// Level is the coefficient level.
	Level int
	// Plane is the bit-plane index within the level.
	Plane int
}

// Config selects which faults to inject and how often. Zero values inject
// nothing; the zero Config is a transparent wrapper.
type Config struct {
	// Seed drives every random decision. Two wrappers with equal Seed and
	// rates inject identical fault sequences.
	Seed int64
	// TransientRate is the probability in [0,1] that any single read
	// attempt fails with an error wrapping storage.ErrTransient. Retrying
	// the read redraws the decision.
	TransientRate float64
	// Permanent lists planes that always fail with an error wrapping
	// storage.ErrPermanent — a lost tape segment, a deleted level file.
	Permanent []PlaneID
	// Latency is added to every successful read, modeling a slow tier.
	Latency time.Duration
	// CorruptRate is the probability in [0,1] that a successful read's
	// payload comes back with one byte flipped — silently, the way real
	// bit-rot arrives. Downstream checksums or decoders must catch it.
	CorruptRate float64
	// TruncateRate is the probability in [0,1] that a successful read's
	// payload comes back cut to half its length.
	TruncateRate float64
}

// Stats is a point-in-time view over the injector's counters. The counters
// live in the obs instruments the wrapper was built with, so a -metrics-out
// snapshot and this struct agree.
type Stats struct {
	// Reads is the number of reads that reached the injector.
	Reads int64
	// Transient is the number of injected transient errors.
	Transient int64
	// Permanent is the number of reads refused as permanently unavailable.
	Permanent int64
	// Corrupted is the number of payloads returned with a flipped byte.
	Corrupted int64
	// Truncated is the number of payloads returned truncated.
	Truncated int64
}

// Distinct stream constants keep the transient/corrupt/truncate draws
// independent even though they share (seed, level, plane, attempt).
const (
	streamTransient = 0x51ED270B
	streamCorrupt   = 0xB5297A4D
	streamTruncate  = 0x68E31DA4
)

// injector is the shared fault engine behind Source and Store.
type injector struct {
	cfg       Config
	permanent map[PlaneID]bool

	mu       sync.Mutex
	attempts map[PlaneID]int

	// Fault counters, under faults.* in the registry the wrapper was built
	// with.
	reads     *obs.Counter
	transient *obs.Counter
	permHits  *obs.Counter
	corrupted *obs.Counter
	truncated *obs.Counter
}

func newInjector(cfg Config, o *obs.Obs) *injector {
	perm := make(map[PlaneID]bool, len(cfg.Permanent))
	for _, id := range cfg.Permanent {
		perm[id] = true
	}
	m := o.Registry()
	return &injector{
		cfg:       cfg,
		permanent: perm,
		attempts:  make(map[PlaneID]int),
		reads:     m.Counter("faults.reads"),
		transient: m.Counter("faults.injected.transient"),
		permHits:  m.Counter("faults.injected.permanent"),
		corrupted: m.Counter("faults.injected.corrupted"),
		truncated: m.Counter("faults.injected.truncated"),
	}
}

// draw returns a deterministic uniform value in [0,1) for one decision,
// mixing the seed, plane coordinates, per-plane attempt number and the
// decision stream through a splitmix64 finalizer.
func draw(seed int64, level, plane, attempt int, stream uint64) float64 {
	x := uint64(seed) ^ stream
	x ^= uint64(level) * 0x9E3779B97F4A7C15
	x ^= uint64(plane) * 0xC2B2AE3D27D4EB4F
	x ^= uint64(attempt) * 0x165667B19E3779F9
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}

// admit decides the fate of one read attempt before the underlying read
// runs. It returns the attempt number (for the payload mangle draws) and
// an injected error, if any. The modeled tier latency is waited out under
// ctx, so a cancelled read returns ctx's error instead of sleeping on; the
// ctx-less wrappers pass context.Background() and always wait in full.
func (in *injector) admit(ctx context.Context, level, plane int) (int, error) {
	id := PlaneID{Level: level, Plane: plane}
	in.mu.Lock()
	attempt := in.attempts[id]
	in.attempts[id] = attempt + 1
	in.mu.Unlock()
	in.reads.Add(1)
	if in.permanent[id] {
		in.permHits.Add(1)
		return attempt, fmt.Errorf("faults: level %d plane %d permanently unavailable: %w",
			level, plane, storage.ErrPermanent)
	}
	if in.cfg.Latency > 0 {
		t := time.NewTimer(in.cfg.Latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return attempt, ctx.Err()
		}
	}
	if draw(in.cfg.Seed, level, plane, attempt, streamTransient) < in.cfg.TransientRate {
		in.transient.Add(1)
		return attempt, fmt.Errorf("faults: injected transient error on level %d plane %d (attempt %d): %w",
			level, plane, attempt, storage.ErrTransient)
	}
	return attempt, nil
}

// mangle applies the silent payload faults (corruption, truncation) to a
// successful read. The input is copied before modification so cached
// payloads held by the underlying source are never poisoned.
func (in *injector) mangle(level, plane, attempt int, payload []byte) []byte {
	if len(payload) == 0 {
		return payload
	}
	corrupt := draw(in.cfg.Seed, level, plane, attempt, streamCorrupt) < in.cfg.CorruptRate
	truncate := draw(in.cfg.Seed, level, plane, attempt, streamTruncate) < in.cfg.TruncateRate
	if !corrupt && !truncate {
		return payload
	}
	out := append([]byte(nil), payload...)
	if corrupt {
		ix := int(draw(in.cfg.Seed, level, plane, attempt, streamCorrupt^streamTruncate) * float64(len(out)))
		if ix >= len(out) {
			ix = len(out) - 1
		}
		out[ix] ^= 0xFF
		in.corrupted.Add(1)
	}
	if truncate {
		out = out[:len(out)/2]
		in.truncated.Add(1)
	}
	return out
}

func (in *injector) snapshot() Stats {
	return Stats{
		Reads:     in.reads.Value(),
		Transient: in.transient.Value(),
		Permanent: in.permHits.Value(),
		Corrupted: in.corrupted.Value(),
		Truncated: in.truncated.Value(),
	}
}

// Source wraps a storage.SegmentSource with fault injection. It is safe
// for concurrent use if the underlying source is.
type Source struct {
	src storage.SegmentSource
	in  *injector
}

// WrapSource wraps src so its reads are filtered through cfg's faults,
// counted under faults.* in o's registry (a private one when o carries
// none).
func WrapSource(src storage.SegmentSource, cfg Config, o *obs.Obs) *Source {
	return &Source{src: src, in: newInjector(cfg, o)}
}

// Segment implements storage.SegmentSource with injected faults. ctx bounds
// the injected latency and is forwarded to the wrapped source.
func (s *Source) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	attempt, err := s.in.admit(ctx, level, plane)
	if err != nil {
		return nil, err
	}
	payload, err := s.src.Segment(ctx, level, plane)
	if err != nil {
		return nil, err
	}
	return s.in.mangle(level, plane, attempt, payload), nil
}

// Stats returns a snapshot of the injected-fault counters.
func (s *Source) Stats() Stats { return s.in.snapshot() }

// ReaderAt wraps an io.ReaderAt with fault injection for the windowed
// field-read path. Decisions are keyed on the 4 KiB block index of the
// read offset (as the "plane", level 0), so the same deterministic
// (seed, block, attempt) replay property holds for byte-ranged reads.
// A truncation fault surfaces as a short read ending in io.EOF — exactly
// how a truncated file looks through a real os.File.
type ReaderAt struct {
	r  io.ReaderAt
	in *injector
}

// faultBlockShift sizes the fault-decision granularity for ranged reads.
const faultBlockShift = 12

// WrapReaderAt wraps r so its ranged reads are filtered through cfg's
// faults, counted like WrapSource's. Permanent planes in cfg address block
// indices at level 0.
func WrapReaderAt(r io.ReaderAt, cfg Config, o *obs.Obs) *ReaderAt {
	return &ReaderAt{r: r, in: newInjector(cfg, o)}
}

// ReadAt implements io.ReaderAt with injected faults.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	block := int(off >> faultBlockShift)
	attempt, err := r.in.admit(context.Background(), 0, block)
	if err != nil {
		return 0, err
	}
	n, err := r.r.ReadAt(p, off)
	if err != nil {
		return n, err
	}
	out := r.in.mangle(0, block, attempt, p[:n])
	copy(p, out)
	if len(out) < n {
		return len(out), io.EOF
	}
	return n, nil
}

// Stats returns a snapshot of the injected-fault counters.
func (r *ReaderAt) Stats() Stats { return r.in.snapshot() }
