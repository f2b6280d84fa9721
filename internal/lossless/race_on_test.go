//go:build race

package lossless

// raceEnabled reports whether the race detector is active; allocation-count
// guards skip under it because instrumented sync.Pool operations allocate.
const raceEnabled = true
