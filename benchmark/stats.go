package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// quantile returns the p-quantile (0 ≤ p ≤ 1) of vals by linear
// interpolation between order statistics; vals need not be sorted and is
// not modified. NaN for an empty input.
func quantile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// samplesBeyond is how many of n samples lie strictly beyond the
// p-quantile's rank. A reported tail percentile is trustworthy only with at
// least ten such samples, which for p90 means n ≥ 100.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// interval is one timed operation inside a measured window, as offsets
// from the window's start.
type interval struct {
	start, end time.Duration
	// work is what the interval completed, in raw field bytes.
	work float64
}

// share is the fraction of the interval's duration that falls in [lo, hi).
func (iv interval) share(lo, hi time.Duration) float64 {
	if iv.start > lo {
		lo = iv.start
	}
	if iv.end < hi {
		hi = iv.end
	}
	if hi <= lo {
		return 0
	}
	return float64(hi-lo) / float64(iv.end-iv.start)
}

// subWindows splits [0, window) into k equal sub-windows and returns, per
// sub-window, the median latency (ms) of the intervals that ended in it, the
// work rate (work per second) and the number of operations. An interval
// counts towards each sub-window in proportion to the part of its duration
// that falls inside it, so a window holding only a few dozen operations is
// not quantised to whole operations. An interval still running at the
// window's end has its latency in the last sub-window; its work counts only
// up to the window's end, while ops — the divisor for CPU time, which is
// read once the last interval has ended — counts it to its end.
func subWindows(ivs []interval, window time.Duration, k int) (p50ms, rate, ops []float64) {
	width := window / time.Duration(k)
	lat := make([][]float64, k)
	rate = make([]float64, k)
	ops = make([]float64, k)
	for _, iv := range ivs {
		i := int(iv.end / width)
		if i >= k {
			i = k - 1
		}
		lat[i] = append(lat[i], ms(iv.end-iv.start))
		for j := 0; j < k; j++ {
			lo, hi := time.Duration(j)*width, time.Duration(j+1)*width
			rate[j] += iv.work * iv.share(lo, hi) / width.Seconds()
			if j == k-1 {
				hi = math.MaxInt64
			}
			ops[j] += iv.share(lo, hi)
		}
	}
	for j := 0; j < k; j++ {
		if len(lat[j]) > 0 {
			p50ms = append(p50ms, median(lat[j]))
		}
	}
	return p50ms, rate, ops
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// snapshot is the part of the programs' metrics JSON (serve's /metrics,
// mgard's -metrics-out) the benchmark reads.
type snapshot struct {
	Counters   map[string]float64 `json:"counters"`
	Gauges     map[string]float64 `json:"gauges"`
	Histograms map[string]struct {
		Count float64 `json:"count"`
		Sum   float64 `json:"sum"`
	} `json:"histograms"`
}

func parseSnapshot(data []byte) (snapshot, error) {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return snapshot{}, fmt.Errorf("parse metrics snapshot: %w", err)
	}
	return s, nil
}

// value looks a name up as a counter, a gauge, or a histogram's
// "<name>.sum" / "<name>.count".
func (s snapshot) value(name string) (float64, bool) {
	if v, ok := s.Counters[name]; ok {
		return v, true
	}
	if v, ok := s.Gauges[name]; ok {
		return v, true
	}
	if base, ok := strings.CutSuffix(name, ".sum"); ok {
		if h, ok := s.Histograms[base]; ok {
			return h.Sum, true
		}
	}
	if base, ok := strings.CutSuffix(name, ".count"); ok {
		if h, ok := s.Histograms[base]; ok {
			return h.Count, true
		}
	}
	return 0, false
}

// delta is after − before for one name. A name missing from the later
// snapshot is absent (ok false): the program no longer exports it, which the
// report prints as such instead of failing. A name missing only from the
// earlier snapshot started at zero.
func delta(before, after snapshot, name string) (float64, bool) {
	a, ok := after.value(name)
	if !ok {
		return 0, false
	}
	b, _ := before.value(name)
	return a - b, true
}

// deltaPrefix sums delta over every name of the later snapshot's counters
// that starts with prefix, and also returns the per-name deltas.
func deltaPrefix(before, after snapshot, prefix string) (total float64, each map[string]float64) {
	each = map[string]float64{}
	for name := range after.Counters {
		if strings.HasPrefix(name, prefix) {
			d, _ := delta(before, after, name)
			each[name] = d
			total += d
		}
	}
	return total, each
}
