package decompose

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchPasses times the full forward or inverse pass schedule at 129³, the
// benchmark's field size, with the default five-level L2-corrected options.
// Each iteration runs the opposite schedule off the clock, so the data stays
// the same field instead of compounding towards overflow.
func benchPasses(b *testing.B, fwd bool) {
	f := randomTensor(rand.New(rand.NewSource(1)), 129, 129, 129)
	opt := DefaultOptions()
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(8 * len(f.Data())))
			for i := 0; i < b.N; i++ {
				if fwd {
					forward(f, opt, workers)
					b.StopTimer()
					inverse(f, opt, workers, 0)
					b.StartTimer()
				} else {
					b.StopTimer()
					forward(f, opt, workers)
					b.StartTimer()
					inverse(f, opt, workers, 0)
				}
			}
		})
	}
}

func BenchmarkForward(b *testing.B) { benchPasses(b, true) }
func BenchmarkInverse(b *testing.B) { benchPasses(b, false) }
