package bitplane

import (
	"runtime/debug"
	"testing"
)

// The steady-state hot paths — encode with Release, partial decode into a
// caller buffer — must not allocate once the buffer pools are warm: every
// per-call buffer cycles through bufpool and the encoding shells through
// encPool. GC is paused for the measurement because a collection clears
// sync.Pool contents, which would count the refills as steady-state
// allocations.

// TestEncodeSteadyStateAllocs asserts the encode+Release cycle is
// allocation-free at steady state.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	coeffs := benchCoeffs(4096)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Warm the pools.
	for i := 0; i < 3; i++ {
		enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		enc.Release()
	}
	avg := testing.AllocsPerRun(50, func() {
		enc, _ := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
		enc.Release()
	})
	if avg != 0 {
		t.Fatalf("steady-state encode allocates %.2f allocs/op, want 0", avg)
	}
}

// TestDecodePartialSteadyStateAllocs asserts partial decode into a reused
// destination is allocation-free.
func TestDecodePartialSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	coeffs := benchCoeffs(4096)
	enc, err := EncodeLevel(coeffs, 32, Negabinary, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	dst := make([]float64, len(coeffs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, b := range []int{0, 8, 32} {
		b := b
		avg := testing.AllocsPerRun(50, func() {
			enc.DecodePartial(b, dst, 1, nil)
		})
		if avg != 0 {
			t.Fatalf("steady-state DecodePartial(b=%d) allocates %.2f allocs/op, want 0", b, avg)
		}
	}
}
