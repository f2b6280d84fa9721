package pmgard

// Benchmark harness: one testing.B benchmark per paper table/figure
// (DESIGN.md §3) plus micro-benchmarks of the pipeline stages. The figure
// benchmarks run the same experiment code that cmd/bench prints, at the
// harness's smoke scale; run `go run ./cmd/bench -exp all` for the
// full-scale series recorded in EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"pmgard/internal/bitplane"
	"pmgard/internal/decompose"
	"pmgard/internal/experiments"
	"pmgard/internal/nn"
	"pmgard/internal/obs"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/grayscott"
	"pmgard/internal/sim/warpx"
)

// benchParams returns the experiment scale used by the benchmarks: small
// enough that every figure completes in seconds per iteration.
func benchParams() experiments.Params {
	return experiments.Quick()
}

func benchExperiment(b *testing.B, id string) {
	p := benchParams()
	r, ok := experiments.Registry()[id]
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := r.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, t := range tables {
			if err := t.Fprint(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig1IOCost regenerates Fig. 1 (requested vs theory I/O cost).
func BenchmarkFig1IOCost(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2ErrorGap regenerates Fig. 2 (requested vs achieved error).
func BenchmarkFig2ErrorGap(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3BitplaneSurface regenerates Fig. 3a–d (plane counts vs
// timestep, bound, duration, density).
func BenchmarkFig3BitplaneSurface(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig5Correlation regenerates Fig. 5a–c (plane-count correlation
// matrix and per-level breakdowns).
func BenchmarkFig5Correlation(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig7LevelError regenerates Fig. 7 (per-level error decay).
func BenchmarkFig7LevelError(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig9DMGARDWarpX regenerates Fig. 9 (D-MGARD prediction error on
// WarpX).
func BenchmarkFig9DMGARDWarpX(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10DMGARDGrayScott regenerates Fig. 10 (D-MGARD prediction
// error on Gray-Scott).
func BenchmarkFig10DMGARDGrayScott(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11CrossResolution regenerates Fig. 11 (train low-res, test
// high-res).
func BenchmarkFig11CrossResolution(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12EMGARDError regenerates Fig. 12 (E-MGARD achieved error vs
// PSNR).
func BenchmarkFig12EMGARDError(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13RetrievalSavings regenerates Fig. 13 (retrieval-size
// savings, the headline result).
func BenchmarkFig13RetrievalSavings(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkTable2Datasets regenerates Table II (dataset inventory).
func BenchmarkTable2Datasets(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkAblateLoss runs the Huber/MSE/MAE training ablation.
func BenchmarkAblateLoss(b *testing.B) { benchExperiment(b, "ablate-loss") }

// BenchmarkAblateChain runs the CMOR-vs-independent ablation.
func BenchmarkAblateChain(b *testing.B) { benchExperiment(b, "ablate-chain") }

// BenchmarkAblateUpdate runs the transform update-step ablation.
func BenchmarkAblateUpdate(b *testing.B) { benchExperiment(b, "ablate-update") }

// BenchmarkAblateGreedy runs the greedy-vs-level-major ablation.
func BenchmarkAblateGreedy(b *testing.B) { benchExperiment(b, "ablate-greedy") }

// BenchmarkAblateCodec runs the lossless codec ablation.
func BenchmarkAblateCodec(b *testing.B) { benchExperiment(b, "ablate-codec") }

// BenchmarkAblatePool runs the E-MGARD pooled-input size ablation.
func BenchmarkAblatePool(b *testing.B) { benchExperiment(b, "ablate-pool") }

// BenchmarkAblateAugment runs the D-MGARD augmentation ablation.
func BenchmarkAblateAugment(b *testing.B) { benchExperiment(b, "ablate-augment") }

// BenchmarkAblateSession runs the progressive-session ablation.
func BenchmarkAblateSession(b *testing.B) { benchExperiment(b, "ablate-session") }

// BenchmarkAblateConstant runs the error-constant ablation.
func BenchmarkAblateConstant(b *testing.B) { benchExperiment(b, "ablate-constant") }

// BenchmarkAblateEncoding runs the plane-encoding ablation.
func BenchmarkAblateEncoding(b *testing.B) { benchExperiment(b, "ablate-encoding") }

// BenchmarkAblateLevels runs the hierarchy-depth ablation.
func BenchmarkAblateLevels(b *testing.B) { benchExperiment(b, "ablate-levels") }

// BenchmarkExpHybrid runs the combined D+E control extension.
func BenchmarkExpHybrid(b *testing.B) { benchExperiment(b, "exp-hybrid") }

// BenchmarkExpMultiField runs the joint-training extension.
func BenchmarkExpMultiField(b *testing.B) { benchExperiment(b, "exp-multifield") }

// BenchmarkExpBaselines runs the SZ/ZFP one-shot baseline comparison.
func BenchmarkExpBaselines(b *testing.B) { benchExperiment(b, "exp-baselines") }

// --- pipeline-stage micro-benchmarks ---

// BenchmarkCompress measures the full compression pipeline on a 17³ field.
func BenchmarkCompress(b *testing.B) {
	field, err := warpx.DefaultConfig(17, 17, 17).Field("Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	b.SetBytes(int64(8 * field.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(field, cfg, "Jx", 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetrieve measures a mid-tolerance progressive retrieval from
// memory.
func BenchmarkRetrieve(b *testing.B) {
	field, err := warpx.DefaultConfig(17, 17, 17).Field("Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compress(field, DefaultConfig(), "Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	h := &c.Header
	tol := h.AbsTolerance(1e-4)
	est := h.TheoryEstimator()
	b.SetBytes(int64(8 * field.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RetrieveTolerance(context.Background(), h, c, est, tol, RetrieveOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompose measures the multilevel transform alone.
func BenchmarkDecompose(b *testing.B) {
	field, err := warpx.DefaultConfig(33, 33, 33).Field("Ex", 5)
	if err != nil {
		b.Fatal(err)
	}
	opt := decompose.DefaultOptions()
	b.SetBytes(int64(8 * field.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decompose.Decompose(field, opt, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBitplaneEncode measures nega-binary plane encoding with error
// matrix collection.
func BenchmarkBitplaneEncode(b *testing.B) {
	coeffs := make([]float64, 32768)
	for i := range coeffs {
		coeffs[i] = float64(i%211) - 105
	}
	b.SetBytes(int64(8 * len(coeffs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bitplane.EncodeLevel(coeffs, 32, bitplane.Negabinary, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel-pipeline benchmarks (worker-count sweep) ---

// benchWorkerCounts is the sweep recorded in BENCH_parallel.json.
var benchWorkerCounts = []int{1, 2, 4, 8}

// BenchmarkRefactor measures the full write path (decompose + bit-plane
// encode + lossless) on a 33³ field across worker counts. The output bytes
// are identical at every count; only the wall clock moves.
//
// When PMGARD_METRICS_OUT names a file, the benchmark runs with metrics
// enabled and writes the registry snapshot there on completion — CI's
// metrics-smoke step validates it with cmd/obscheck. Timings from such a
// run include the (small) instrumentation cost; leave the variable unset
// when measuring.
func BenchmarkRefactor(b *testing.B) {
	field, err := warpx.DefaultConfig(33, 33, 33).Field("Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	var o *obs.Obs
	if path := os.Getenv("PMGARD_METRICS_OUT"); path != "" {
		o = obs.New()
		b.Cleanup(func() {
			if err := o.Metrics.WriteFile(path); err != nil {
				b.Fatal(err)
			}
		})
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Parallelism = workers
			cfg.Obs = o
			b.SetBytes(int64(8 * field.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Compress(field, cfg, "Jx", 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRetrieveParallel measures the read path (fetch + decompress +
// decode + recompose) from memory across worker counts.
func BenchmarkRetrieveParallel(b *testing.B) {
	field, err := warpx.DefaultConfig(33, 33, 33).Field("Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compress(field, DefaultConfig(), "Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	h := &c.Header
	plan, err := retrieval.GreedyPlan(h.LevelInfos(), h.TheoryEstimator(), h.AbsTolerance(1e-5))
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(8 * field.Len()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Retrieve(context.Background(), h, c, plan, RetrieveOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTrainParallel measures data-parallel minibatch training across
// worker counts (workers=1 is the classic sequential trainer).
func BenchmarkTrainParallel(b *testing.B) {
	x := nn.NewMat(2048, 16)
	y := nn.NewMat(2048, 1)
	for i := range x.Data {
		x.Data[i] = float64(i%17) / 17
	}
	for i := range y.Data {
		y.Data[i] = float64(i % 33)
	}
	for _, workers := range benchWorkerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := nn.TrainConfig{
				Epochs: 1, BatchSize: 512, Seed: 1,
				Loss: nn.Huber{Delta: 1}, Optimizer: nn.NewAdam(1e-3),
				Workers: workers,
			}
			model := nn.MLP(16, []int{64, 64, 64, 64}, 1, 0.01, rand.New(rand.NewSource(1)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := nn.Train(model, x, y, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionShared compares two concurrent sessions refining the same
// field to the same tolerance with and without the shared plane cache — the
// multi-session serving scenario recorded in BENCH_cache.json. The shared
// variant reuses one warm cache across iterations, so it measures the
// steady-state serving cost (decode + recompose only); the independent
// variant pays store reads and decompression in both sessions every time.
func BenchmarkSessionShared(b *testing.B) {
	field, err := warpx.DefaultConfig(33, 33, 33).Field("Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compress(field, DefaultConfig(), "Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	// Serve from a store file, as cmd/serve does: the independent variant
	// pays store reads + decompression in both sessions, the shared variant
	// hits the warm cache.
	path := filepath.Join(b.TempDir(), "jx.pmgd")
	if err := c.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	h, st, err := OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	est := h.TheoryEstimator()
	tol := h.AbsTolerance(1e-6)

	refinePair := func(b *testing.B, open func() (*Session, error)) {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s, err := open()
				if err != nil {
					errs[i] = err
					return
				}
				_, _, _, errs[i] = s.Refine(context.Background(), est, tol)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("independent", func(b *testing.B) {
		b.SetBytes(int64(2 * 8 * field.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refinePair(b, func() (*Session, error) { return NewSession(h, st) })
		}
	})
	b.Run("shared", func(b *testing.B) {
		cache := NewPlaneCache(0)
		// Warm pass outside the timer: steady-state serving hits the cache.
		refinePair(b, func() (*Session, error) {
			return NewSharedSession(h, st, cache)
		})
		b.SetBytes(int64(2 * 8 * field.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			refinePair(b, func() (*Session, error) {
				return NewSharedSession(h, st, cache)
			})
		}
	})
}

// BenchmarkGreedyPlan measures the planner on a realistic 5-level header.
func BenchmarkGreedyPlan(b *testing.B) {
	field, err := warpx.DefaultConfig(17, 17, 17).Field("Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	c, err := Compress(field, DefaultConfig(), "Jx", 5)
	if err != nil {
		b.Fatal(err)
	}
	infos := c.Header.LevelInfos()
	est := c.Header.TheoryEstimator()
	tol := c.Header.AbsTolerance(1e-5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := retrieval.GreedyPlan(infos, est, tol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrayScottStep measures one output step of the 3-D simulator.
func BenchmarkGrayScottStep(b *testing.B) {
	sim, err := grayscott.New(grayscott.DefaultConfig(32))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * 32 * 32 * 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkMLPTrainEpoch measures one epoch of MLP training at the
// D-MGARD scale.
func BenchmarkMLPTrainEpoch(b *testing.B) {
	cfg := nn.TrainConfig{
		Epochs: 1, BatchSize: 64, Seed: 1,
		Loss: nn.Huber{Delta: 1}, Optimizer: nn.NewAdam(1e-3),
	}
	x := nn.NewMat(1024, 16)
	y := nn.NewMat(1024, 1)
	for i := range x.Data {
		x.Data[i] = float64(i%17) / 17
	}
	for i := range y.Data {
		y.Data[i] = float64(i % 33)
	}
	rngModel := nn.MLP(16, []int{32, 32, 32, 32, 32, 32}, 1, 0.01, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Train(rngModel, x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
