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

// hybridRetrieve is exp-hybrid's read, the two models combined as the
// paper's future work sketches (§IV-E): a D-MGARD plane prediction seeds
// the plan and an (E-MGARD) bound verifies and refines it, extending while
// the bound misses the tolerance and never shedding a seeded plane
// (retrieval.RefinePlan). Extend-only, because the learned estimator is
// calibrated on greedy-shaped plans: its estimates for shrunk plan shapes
// are unreliable, and shedding planes re-introduces bound violations. The
// hybrid repairs D-MGARD's under-predictions, the dangerous direction; it
// does not squeeze bytes below E-MGARD.
func hybridRetrieve(ctx context.Context, h *core.Header, src storage.SegmentSource, seedPlanes []int, bound retrieval.Bound, tol float64, opt core.RetrieveOptions) (*grid.Tensor, retrieval.Plan, error) {
	plan, err := retrieval.RefinePlan(h.LevelInfos(), seedPlanes, bound, tol)
	if err != nil {
		return nil, retrieval.Plan{}, err
	}
	rec, err := core.Retrieve(ctx, h, src, plan, opt)
	return rec, plan, err
}
