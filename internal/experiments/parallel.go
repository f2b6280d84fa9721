package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/sim/warpx"
	"pmgard/internal/storage"
)

// ParallelPoint is one GOMAXPROCS measurement of the multi-core sweep:
// the streaming refactor pipeline and the parallel retrieval path timed
// with both the worker count and the scheduler's processor count pinned
// to Procs, so the point measures real parallelism rather than goroutine
// interleaving on one core.
type ParallelPoint struct {
	// Procs is the GOMAXPROCS value and pipeline worker count.
	Procs int `json:"procs"`
	// RefactorNs is the best-of-reps wall time of one full streaming
	// refactor (decompose + encode + deflate + segment write).
	RefactorNs int64 `json:"refactor_ns"`
	// RefactorMBps is the raw field bytes over that wall time.
	RefactorMBps float64 `json:"refactor_mb_per_s"`
	// RefactorSpeedup is relative to the sweep's first point.
	RefactorSpeedup float64 `json:"refactor_speedup"`
	// RetrieveNs is the best-of-reps wall time of a tolerance retrieval.
	RetrieveNs int64 `json:"retrieve_ns"`
	// RetrieveSpeedup is relative to the sweep's first point.
	RetrieveSpeedup float64 `json:"retrieve_speedup"`
}

// discardSink drops segments: the refactor timing measures the pipeline,
// not the disk.
type discardSink struct{}

// WriteSegment implements core.SegmentSink.
func (discardSink) WriteSegment(storage.SegmentID, []byte) error { return nil }

// ParallelSweep times the streaming compression pipeline and the parallel
// retrieval path at each GOMAXPROCS setting, best of reps runs per point.
// The caller's GOMAXPROCS is restored before returning. Output bytes are
// bit-identical at every point (the golden equivalence tests enforce it);
// only wall clock moves.
func ParallelSweep(p Params, procs []int, reps int) ([]ParallelPoint, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("experiments: parallel sweep has no proc counts")
	}
	if reps < 1 {
		reps = 1
	}
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	field, err := warpxField(cfg, "Jx", 1)
	if err != nil {
		return nil, err
	}
	// One reference artifact for the retrieval timings, compressed before
	// any GOMAXPROCS pinning.
	ref, err := core.Compress(field, p.Compress, "Jx", 1)
	if err != nil {
		return nil, err
	}
	tol := ref.Header.AbsTolerance(1e-5)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rawBytes := float64(8 * field.Len())
	var points []ParallelPoint
	for _, pr := range procs {
		if pr < 1 {
			return nil, fmt.Errorf("experiments: parallel sweep proc count %d < 1", pr)
		}
		runtime.GOMAXPROCS(pr)
		ccfg := p.Compress
		ccfg.Parallelism = pr

		bestC := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, err := core.CompressTo(field, ccfg, "Jx", 1, discardSink{}); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < bestC {
				bestC = d
			}
		}

		bestR := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if _, _, err := core.RetrieveTolerance(context.Background(), &ref.Header, ref,
				ref.Header.TheoryEstimator(), tol, core.RetrieveOptions{Workers: pr}); err != nil {
				return nil, err
			}
			if d := time.Since(start); d < bestR {
				bestR = d
			}
		}

		pt := ParallelPoint{
			Procs:        pr,
			RefactorNs:   bestC.Nanoseconds(),
			RefactorMBps: rawBytes / 1e6 / bestC.Seconds(),
			RetrieveNs:   bestR.Nanoseconds(),
		}
		if len(points) == 0 {
			pt.RefactorSpeedup, pt.RetrieveSpeedup = 1, 1
		} else {
			pt.RefactorSpeedup = float64(points[0].RefactorNs) / float64(pt.RefactorNs)
			pt.RetrieveSpeedup = float64(points[0].RetrieveNs) / float64(pt.RetrieveNs)
		}
		points = append(points, pt)
	}
	return points, nil
}

// ParallelTable renders the sweep as a printable table.
func ParallelTable(points []ParallelPoint) *Table {
	t := &Table{
		ID:    "exp-parallel",
		Title: "Multi-core scaling: streaming refactor pipeline and parallel retrieval vs GOMAXPROCS",
		Note: "Each point pins GOMAXPROCS and the pipeline worker count together; output bytes are " +
			"bit-identical at every point. On a single-vCPU host every point shares one core and " +
			"speedups hover near 1.",
		Columns: []string{"procs", "refactor_ms", "refactor_mb_per_s", "refactor_speedup", "retrieve_ms", "retrieve_speedup"},
	}
	for _, pt := range points {
		t.AddRow(pt.Procs,
			fmt.Sprintf("%.2f", float64(pt.RefactorNs)/1e6),
			fmt.Sprintf("%.2f", pt.RefactorMBps),
			fmt.Sprintf("%.2f", pt.RefactorSpeedup),
			fmt.Sprintf("%.2f", float64(pt.RetrieveNs)/1e6),
			fmt.Sprintf("%.2f", pt.RetrieveSpeedup))
	}
	return t
}
