package experiments

import (
	"fmt"
	"sort"
)

// Runner is one registered experiment.
type Runner struct {
	// ID is the experiment id used on the cmd/bench command line.
	ID string
	// Paper names the paper artifact the experiment reproduces.
	Paper string
	// Run executes the experiment and returns its tables.
	Run func(Params) ([]*Table, error)
}

// Registry returns every experiment, keyed by id.
func Registry() map[string]Runner {
	runners := []Runner{
		{ID: "fig1", Paper: "Fig. 1 — I/O cost: requested vs theory-controlled", Run: Fig1},
		{ID: "fig2", Paper: "Fig. 2 — requested vs achieved error gap", Run: Fig2},
		{ID: "fig3", Paper: "Fig. 3 — bit-planes vs timestep/bound/duration/density", Run: Fig3},
		{ID: "fig5", Paper: "Fig. 5 — plane-count correlations and level breakdown", Run: Fig5},
		{ID: "fig7", Paper: "Fig. 7 — per-level error vs planes retrieved", Run: Fig7},
		{ID: "fig9", Paper: "Fig. 9 — D-MGARD prediction error, WarpX", Run: Fig9},
		{ID: "fig10", Paper: "Fig. 10 — D-MGARD prediction error, Gray-Scott", Run: Fig10},
		{ID: "fig11", Paper: "Fig. 11 — D-MGARD across resolutions", Run: Fig11},
		{ID: "fig12", Paper: "Fig. 12 — E-MGARD achieved error vs PSNR", Run: Fig12},
		{ID: "fig13", Paper: "Fig. 13 — retrieval-size savings (Eq. 8)", Run: Fig13},
		{ID: "tab2", Paper: "Table II — application datasets", Run: Table2},
		{ID: "ablate-loss", Paper: "ablation — Huber vs MSE vs MAE (§III-C)", Run: AblateLoss},
		{ID: "ablate-chain", Paper: "ablation — CMOR chaining vs independent MLPs", Run: AblateChain},
		{ID: "ablate-update", Paper: "ablation — L2 update lifting step", Run: AblateUpdate},
		{ID: "ablate-greedy", Paper: "ablation — greedy vs level-major order", Run: AblateGreedy},
		{ID: "ablate-codec", Paper: "ablation — lossless codec choice", Run: AblateCodec},
		{ID: "ablate-pool", Paper: "ablation — E-MGARD pooled-input size", Run: AblatePool},
		{ID: "ablate-augment", Paper: "ablation — D-MGARD feature augmentation", Run: AblateAugment},
		{ID: "ablate-session", Paper: "ablation — progressive session vs one-shot", Run: AblateSession},
		{ID: "ablate-constant", Paper: "ablation — naive vs learned error constants", Run: AblateConstant},
		{ID: "ablate-encoding", Paper: "ablation — nega-binary vs sign-magnitude planes", Run: AblateEncoding},
		{ID: "ablate-levels", Paper: "ablation — hierarchy depth L", Run: AblateLevels},
		{ID: "exp-hybrid", Paper: "extension — combined D+E control (paper §IV-E future work)", Run: ExpHybrid},
		{ID: "exp-multifield", Paper: "extension — per-application (joint) D-MGARD training", Run: ExpMultiField},
		{ID: "exp-baselines", Paper: "extension — one-shot SZ/ZFP archives vs progressive (§I motivation)", Run: ExpBaselines},
		{ID: "exp-shard", Paper: "extension — shard-tier node-count scaling (router over /planes nodes)", Run: ExpShard},
	}
	m := make(map[string]Runner, len(runners))
	for _, r := range runners {
		m[r.ID] = r
	}
	return m
}

// IDs returns the registered experiment ids in stable order.
func IDs() []string {
	reg := Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id, once, and returns its tables; printing
// (Table.Fprint) and CSV export (WriteCSVFiles) both take them from here.
func Run(id string, p Params) ([]*Table, error) {
	r, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	tables, err := r.Run(p)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	return tables, nil
}
