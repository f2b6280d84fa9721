package experiments

import (
	"fmt"
	"sync"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/grid"
	"pmgard/internal/sim/grayscott"
	"pmgard/internal/sim/warpx"
)

// Params scales the experiments. The paper runs 512³ grids over 512
// timesteps on Summit; the defaults here reproduce every figure's shape at
// laptop scale, and every knob can be raised from cmd/bench flags.
type Params struct {
	// WarpXDims are the synthetic WarpX grid dimensions.
	WarpXDims []int
	// GrayScottN is the Gray-Scott grid extent per axis.
	GrayScottN int
	// Steps is the number of output timesteps per field.
	Steps int
	// Bounds is the relative error-bound sweep.
	Bounds []float64
	// Compress configures the compression pipeline.
	Compress core.Config
	// DTrain and ETrain configure model training.
	DTrain dmgard.Config
	ETrain emgard.Config
	// Seed drives all experiment-level randomness.
	Seed int64
}

// Default returns the laptop-scale parameter set used by cmd/bench and the
// recorded EXPERIMENTS.md results.
func Default() Params {
	return Params{
		WarpXDims:  []int{17, 17, 17},
		GrayScottN: 17,
		Steps:      32,
		Bounds:     dmgard.DefaultRelBounds(),
		Compress:   core.DefaultConfig(),
		DTrain:     dmgard.DefaultConfig(),
		ETrain:     emgard.DefaultConfig(),
		Seed:       1,
	}
}

// Quick returns a minimal parameter set for unit tests of the harness
// itself.
func Quick() Params {
	p := Default()
	p.WarpXDims = []int{9, 9, 9}
	// 17 is the smallest box in which the default Gray-Scott regime
	// self-sustains; smaller boxes decay to constant fields.
	p.GrayScottN = 17
	p.Steps = 6
	p.Bounds = []float64{1e-7, 1e-5, 1e-3, 1e-2, 1e-1}
	p.DTrain = dmgard.Config{Hidden: []int{12, 12}, LeakyAlpha: 0.01, Epochs: 20, BatchSize: 16, LR: 3e-3, Seed: 1}
	p.ETrain = emgard.Config{Hidden: []int{12, 8}, Epochs: 20, BatchSize: 16, LR: 3e-3, Seed: 1, Margin: 1}
	return p
}

func (p Params) validate() error {
	if len(p.WarpXDims) != 3 {
		return fmt.Errorf("experiments: WarpXDims must be 3-D, got %v", p.WarpXDims)
	}
	if p.Steps < 2 {
		return fmt.Errorf("experiments: Steps %d < 2", p.Steps)
	}
	if len(p.Bounds) == 0 {
		return fmt.Errorf("experiments: empty bound sweep")
	}
	return nil
}

// datasets caches generated fields so experiments sharing a workload do not
// regenerate it. Keyed per Params value by the dims/steps that matter.
type datasets struct {
	mu sync.Mutex
	// warpx fields keyed by name/timestep/dims/config-variant.
	warpxCache map[string]*grid.Tensor
	// grayScott runs keyed by n; each holds all steps of both fields.
	gsCache map[int]*gsRun
}

type gsRun struct {
	du []*grid.Tensor
	dv []*grid.Tensor
}

var data = &datasets{
	warpxCache: make(map[string]*grid.Tensor),
	gsCache:    make(map[int]*gsRun),
}

// warpxField returns the named synthetic WarpX field at timestep t under
// the given config, cached.
func warpxField(cfg warpx.Config, name string, t int) (*grid.Tensor, error) {
	key := fmt.Sprintf("%s/%d/%v/%g/%g/%g/%d", name, t, cfg.Dims, cfg.A0, cfg.Density, cfg.Duration, cfg.Seed)
	data.mu.Lock()
	if f, ok := data.warpxCache[key]; ok {
		data.mu.Unlock()
		return f, nil
	}
	data.mu.Unlock()
	f, err := cfg.Field(name, t)
	if err != nil {
		return nil, err
	}
	data.mu.Lock()
	data.warpxCache[key] = f
	data.mu.Unlock()
	return f, nil
}

// grayScottField returns the named Gray-Scott field at output step t for an
// n³ run, integrating (and caching) the whole trajectory on first use.
func grayScottField(n, steps int, name string, t int) (*grid.Tensor, error) {
	if t >= steps {
		return nil, fmt.Errorf("experiments: timestep %d ≥ steps %d", t, steps)
	}
	data.mu.Lock()
	run, ok := data.gsCache[n]
	if ok && len(run.du) >= steps {
		defer data.mu.Unlock()
		return pickGS(run, name, t)
	}
	data.mu.Unlock()

	sim, err := grayscott.New(grayscott.DefaultConfig(n))
	if err != nil {
		return nil, err
	}
	fresh := &gsRun{}
	for s := 0; s < steps; s++ {
		sim.Step()
		fresh.du = append(fresh.du, sim.FieldU())
		fresh.dv = append(fresh.dv, sim.FieldV())
	}
	data.mu.Lock()
	data.gsCache[n] = fresh
	data.mu.Unlock()
	return pickGS(fresh, name, t)
}

func pickGS(run *gsRun, name string, t int) (*grid.Tensor, error) {
	switch name {
	case "Du":
		return run.du[t], nil
	case "Dv":
		return run.dv[t], nil
	default:
		return nil, fmt.Errorf("experiments: unknown Gray-Scott field %q", name)
	}
}
