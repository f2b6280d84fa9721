package experiments

import (
	"context"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

// greedyRetrieve is the reproduction's one-shot read as the paper ran it:
// MGARD's greedy plan under bound at tol (retrieval.Greedy, §II-C), then
// exactly those planes. The product's core.RetrieveTolerance plans the
// fewest bytes the bound allows instead, which would move every figure.
func greedyRetrieve(h *core.Header, src storage.SegmentSource, bound retrieval.Bound, tol float64) (*grid.Tensor, retrieval.Plan, error) {
	plan, err := retrieval.Greedy(h.LevelInfos(), bound, tol)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	rec, err := core.Retrieve(context.Background(), h, src, plan, core.RetrieveOptions{})
	return rec, plan, err
}
