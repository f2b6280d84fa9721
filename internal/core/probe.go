package core

import (
	"context"
	"fmt"
	"sort"

	"pmgard/internal/codec"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
)

// ProbePoint is one tolerance of a backend probe: the smallest greedy plane
// prefix whose *measured* reconstruction error meets the tolerance, and what
// it costs. Probing measures oracle bytes rather than estimator-planned
// bytes on purpose — planned bytes would mostly rank the backends'
// amplification constants, while the serving question is which refactoring
// actually reaches an accuracy cheapest on this field.
type ProbePoint struct {
	// RelBound is the relative error bound the point targets.
	RelBound float64 `json:"rel_bound"`
	// Tolerance is the absolute tolerance (RelBound × value range).
	Tolerance float64 `json:"tolerance"`
	// Bytes is the payload cost of the smallest achieving prefix.
	Bytes int64 `json:"bytes"`
	// Planes is that prefix's per-level plane assignment.
	Planes []int `json:"planes"`
	// AchievedErr is the measured L∞ reconstruction error at Planes.
	AchievedErr float64 `json:"achieved_err"`
}

// ProbeResult is one backend's probe over a field: the artifact size, the
// per-tolerance oracle costs, and the aggregate score the selection ranks.
type ProbeResult struct {
	// Backend is the progressive-codec ID.
	Backend string `json:"backend"`
	// StoredBytes is the total compressed payload of the backend's artifact.
	StoredBytes int64 `json:"stored_bytes"`
	// Points holds one entry per probed tolerance, loosest first.
	Points []ProbePoint `json:"points"`
	// Score is the sum of Bytes over Points — lower retrieves cheaper.
	Score int64 `json:"score"`
}

// ProbeComparison is a per-field backend comparison, the record
// BENCH_codec.json stores and cmd/serve's startup probe acts on.
type ProbeComparison struct {
	// Field names the probed field.
	Field string `json:"field"`
	// Winner is the selected backend: the lowest Score, ties resolved to
	// the default backend, then lexicographically — fully deterministic.
	Winner string `json:"winner"`
	// Results holds one entry per probed backend, sorted by ID.
	Results []ProbeResult `json:"results"`
}

// DefaultProbeBounds returns the relative error bounds a probe sweeps:
// coarse exploration through tight retrieval, loosest first.
func DefaultProbeBounds() []float64 {
	return []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6}
}

// ProbeBackends compresses the field once per backend and walks each
// artifact's greedy retrieval sequence, measuring at every tolerance the
// smallest prefix whose reconstruction error actually meets it. backends
// nil probes every registered backend; rels nil uses DefaultProbeBounds.
// The walk is deterministic: same field, same config, same result.
func ProbeBackends(f *grid.Tensor, cfg Config, fieldName string, rels []float64, backends []string) (*ProbeComparison, error) {
	if backends == nil {
		backends = codec.IDs()
	}
	if rels == nil {
		rels = DefaultProbeBounds()
	}
	rels = append([]float64(nil), rels...)
	sort.Sort(sort.Reverse(sort.Float64Slice(rels))) // loosest first
	backends = append([]string(nil), backends...)
	sort.Strings(backends)
	cmp := &ProbeComparison{Field: fieldName}
	for _, id := range backends {
		cfgB := cfg
		cfgB.Backend = id
		res, err := probeBackend(f, cfgB, fieldName, rels)
		if err != nil {
			return nil, fmt.Errorf("core: probe %s with %s: %w", fieldName, id, err)
		}
		cmp.Results = append(cmp.Results, res)
	}
	cmp.Winner = pickWinner(cmp.Results)
	return cmp, nil
}

// probeBackend walks one backend's greedy sequence over all tolerances on
// one measured walk. Tolerances arrive loosest first, so the walk never
// rewinds: each point resumes from the previous point's prefix.
func probeBackend(f *grid.Tensor, cfg Config, fieldName string, rels []float64) (ProbeResult, error) {
	comp, err := Compress(f, cfg, fieldName, 0)
	if err != nil {
		return ProbeResult{}, err
	}
	h := &comp.Header
	steps, err := retrieval.GreedySequence(h.LevelInfos())
	if err != nil {
		return ProbeResult{}, err
	}
	w, err := NewWalker(h, comp, f)
	if err != nil {
		return ProbeResult{}, err
	}
	res := ProbeResult{Backend: h.Codec(), StoredBytes: h.TotalBytes()}
	at := retrieval.Step{Planes: make([]int, len(h.Levels))}
	_, achieved, err := w.Stop(context.Background(), at.Planes)
	if err != nil {
		return ProbeResult{}, err
	}
	for _, rel := range rels {
		tol := h.AbsTolerance(rel)
		for achieved > tol && len(steps) > 0 {
			at, steps = steps[0], steps[1:]
			if _, achieved, err = w.Stop(context.Background(), at.Planes); err != nil {
				return ProbeResult{}, err
			}
		}
		res.Points = append(res.Points, ProbePoint{
			RelBound:    rel,
			Tolerance:   tol,
			Bytes:       at.Bytes,
			Planes:      append([]int(nil), at.Planes...),
			AchievedErr: achieved,
		})
		res.Score += at.Bytes
	}
	return res, nil
}

// pickWinner selects the lowest-score backend; ties prefer the default
// backend, then the lexicographically first ID (results arrive sorted).
func pickWinner(results []ProbeResult) string {
	winner := ""
	var best int64
	for _, r := range results {
		switch {
		case winner == "" || r.Score < best:
			winner, best = r.Backend, r.Score
		case r.Score == best && r.Backend == codec.DefaultID:
			winner = r.Backend
		}
	}
	return winner
}
