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

// BenchmarkInverseLines times the inverse's last-axis line lifts alone —
// every slab's lines at step h of a 129³ grid, through the wavefront's own
// dispatch (four lines per AVX2 kernel call where the CPU has it), without
// the axis-0 and row lifts between them. Each iteration runs the forward
// lines off the clock, so the data stays near the same field.
func BenchmarkInverseLines(b *testing.B) {
	f := randomTensor(rand.New(rand.NewSource(1)), 129, 129, 129)
	opt := DefaultOptions()
	for _, h := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			v := activeView(f.Dims(), h)
			inv := &lifter{data: f.Data(), opt: opt, h: h}
			fwd := &lifter{data: f.Data(), opt: opt, h: h, fwd: true}
			b.SetBytes(int64(8 * v.n[0] * v.n[1] * v.n[2]))
			for i := 0; i < b.N; i++ {
				for s := 0; s < v.n[0]; s++ {
					sv := v.slab(s)
					for k := 0; k < sv.n[0]; k++ {
						inv.inverseStep(sv, k, 0, sv.n[0])
					}
				}
				b.StopTimer()
				for s := 0; s < v.n[0]; s++ {
					sv := v.slab(s)
					for k := 0; k < sv.n[0]; k++ {
						fwd.line(sv.slab(k))
					}
				}
				b.StartTimer()
			}
		})
	}
}
