// Package pool is the deterministic worker-pool substrate behind every
// parallel stage of the pipeline (decomposition passes, bit-plane encoding,
// lossless coding, segment retrieval, minibatch gradient accumulation).
//
// The pool enforces the repository's determinism invariant: fan-out never
// changes results. Workers are handed pre-assigned index ranges and must
// write into pre-sized slots owned exclusively by their index — never
// append to a shared slice — so the bytes produced are identical for every
// worker count, including 1. Scheduling freedom only moves *when* a slot is
// filled, not *what* is written into it.
//
// Error handling is deterministic too: every index runs to completion
// regardless of other indices' failures (matching what a sequential loop
// over independent slots would compute), and the error reported is always
// the one with the lowest index, independent of scheduling order.
package pool

import (
	"context"
	"runtime"
	"sync"
)

// Clamp resolves a worker-count option to an effective pool size: values
// below 1 mean "use the hardware", i.e. runtime.GOMAXPROCS(0).
func Clamp(workers int) int {
	if workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Run invokes fn(worker, i) exactly once for every i in [0, n), fanning out
// across at most `workers` goroutines (clamped to GOMAXPROCS when < 1, and
// to n). worker identifies the executing goroutine in [0, effective
// workers) so callers can maintain per-worker scratch state; with workers
// == 1 every call runs on the caller's goroutine with worker == 0.
//
// All indices run even if some fail, and the returned error is the one
// raised by the lowest index — both independent of worker count, so an
// erroring fan-out is as reproducible as a successful one.
//
// Cancellation is cooperative: once ctx ends, no new index is dispatched —
// indices already running complete, so slots are never left half-written.
// This relaxes the every-index guarantee by design (stopping early is the
// point); determinism of what *did* run is preserved, a fn error from the
// lowest index still takes precedence over ctx's error, and a cancellation
// that lands after every index already ran is not an error.
//
// A non-nil m records per-task telemetry (see Metrics); instruments only
// observe, they never influence scheduling or results.
func Run(ctx context.Context, n, workers int, m *Metrics, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	if m != nil {
		var drain func()
		fn, drain = m.observe(n, fn)
		defer drain()
	}
	workers = Clamp(workers)
	if workers > n {
		workers = n
	}
	var (
		mu        sync.Mutex
		errIdx    = -1
		lowErr    error
		next      int
		completed int
	)
	loop := func(worker int) {
		for ctx.Err() == nil {
			mu.Lock()
			i := next
			next++
			mu.Unlock()
			if i >= n {
				return
			}
			err := fn(worker, i)
			mu.Lock()
			completed++
			if err != nil && (errIdx == -1 || i < errIdx) {
				errIdx, lowErr = i, err
			}
			mu.Unlock()
		}
	}
	if workers == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				loop(worker)
			}(w)
		}
		wg.Wait()
	}
	if lowErr != nil {
		return lowErr
	}
	if completed < n {
		// Only cancellation stops dispatch early, so an incomplete fan-out
		// without a fn error reports ctx's error.
		return ctx.Err()
	}
	return nil
}

// RunChunks splits [0, n) into at most `workers` contiguous chunks and
// invokes fn(worker, lo, hi) for each. It is the bulk-work variant of Run
// for loops whose per-index cost is too small to schedule individually;
// the same determinism contract applies because chunk boundaries only
// change which goroutine computes a slot, never its value. Each chunk
// counts as one task in m. Chunks are compute kernels and are never
// cancelled midway, so RunChunks takes no context.
func RunChunks(n, workers int, m *Metrics, fn func(worker, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Clamp(workers)
	chunks := workers
	if chunks > n {
		chunks = n
	}
	return Run(context.Background(), chunks, workers, m, func(worker, c int) error {
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		return fn(worker, lo, hi)
	})
}
