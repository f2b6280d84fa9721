package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"pmgard/internal/grid"
)

// checksumEightAtATime is the response CRC as it was first written, one
// value per Write: the definition the bulk paths must reproduce.
func checksumEightAtATime(data []float64) uint32 {
	h := crc32.NewIEEE()
	var buf [8]byte
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum32()
}

// TestChecksumMatchesDefinition holds both paths of checksumLE — the host's
// own bytes, and the encode-a-buffer path a big-endian host takes — to the
// definition, on lengths around the buffer's 512 values and on values whose
// bits are all a checksum can tell apart.
func TestChecksumMatchesDefinition(t *testing.T) {
	if !hostLittleEndian {
		t.Log("big-endian host: the in-memory path is not the definition here and is not exercised")
	}
	special := []float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0xfff8_0000_dead_beef),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Inf(-1), math.SmallestNonzeroFloat64,
	}
	for _, n := range []int{0, 1, 7, 8, 511, 512, 513, 4097} {
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Sin(float64(i)) * 1e3
			if i%5 == 0 {
				data[i] = special[i/5%len(special)]
			}
		}
		want := checksumEightAtATime(data)
		if got := checksumLE(data, false); got != want {
			t.Errorf("n=%d: encoded path %08x, want %08x", n, got, want)
		}
		if hostLittleEndian {
			if got := checksumLE(data, true); got != want {
				t.Errorf("n=%d: in-memory path %08x, want %08x", n, got, want)
			}
		}
		if n > 0 {
			tensor := grid.New(n)
			copy(tensor.Data(), data)
			if got := tensorChecksum(tensor); got != fmt.Sprintf("%08x", want) {
				t.Errorf("n=%d: tensorChecksum %s, want %08x", n, got, want)
			}
		}
	}
}
