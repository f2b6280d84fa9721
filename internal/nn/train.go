package nn

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"pmgard/internal/obs"
	"pmgard/internal/pool"
)

// microBatchRows is the fixed micro-batch size the data-parallel trainer
// chunks each mini-batch into. The chunk size is deliberately independent of
// the worker count: chunk boundaries (and therefore every floating-point
// summation order) depend only on the batch, so gradients are bit-identical
// whether 2 or 32 workers execute the chunks.
const microBatchRows = 64

// TrainConfig configures a mini-batch training run.
type TrainConfig struct {
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the mini-batch size; batches are drawn without
	// replacement from a fresh shuffle each epoch.
	BatchSize int
	// Seed drives the shuffle so runs are reproducible.
	Seed int64
	// Loss is the training objective.
	Loss Loss
	// Optimizer applies the updates.
	Optimizer Optimizer
	// Progress, if non-nil, is invoked after every epoch with the mean
	// training loss.
	Progress func(epoch int, loss float64)
	// ValFrac, if positive, holds out that fraction of the samples as a
	// validation split (taken from the end of the shuffled order once, so
	// the split is stable across epochs).
	ValFrac float64
	// Patience, if positive, stops training once the validation loss has
	// not improved for that many consecutive epochs. Requires ValFrac > 0.
	Patience int
	// Workers, when > 1, computes each mini-batch's gradient data-parallel:
	// the batch is cut into fixed-size micro-batches, each replica computes
	// its chunk's gradient into a private snapshot, and the snapshots are
	// summed in chunk order weighted by chunk size. The result is
	// bit-identical for every Workers > 1 value; it differs from the
	// sequential path (Workers ≤ 1, the default) only by floating-point
	// summation order, exactly as a different batch size would.
	Workers int
	// Obs records training telemetry — per-epoch loss/grad-norm gauges,
	// micro-batch counters and throughput, epoch spans — when set. nil (the
	// default) disables it and never changes the trained weights.
	Obs *obs.Obs
}

func (c TrainConfig) validate(n int) error {
	if c.Epochs < 1 {
		return fmt.Errorf("nn: Epochs %d < 1", c.Epochs)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("nn: BatchSize %d < 1", c.BatchSize)
	}
	if c.Loss == nil {
		return fmt.Errorf("nn: Loss not set")
	}
	if c.Optimizer == nil {
		return fmt.Errorf("nn: Optimizer not set")
	}
	if n == 0 {
		return fmt.Errorf("nn: empty training set")
	}
	if c.ValFrac < 0 || c.ValFrac >= 1 {
		return fmt.Errorf("nn: ValFrac %g out of [0,1)", c.ValFrac)
	}
	if c.Patience > 0 && c.ValFrac == 0 {
		return fmt.Errorf("nn: Patience requires ValFrac > 0")
	}
	if c.ValFrac > 0 && int(c.ValFrac*float64(n)) == 0 {
		return fmt.Errorf("nn: ValFrac %g leaves an empty validation split for %d samples", c.ValFrac, n)
	}
	return nil
}

// Train fits model to (x, y) and returns the per-epoch mean training loss.
// x and y must have the same number of rows.
func Train(model *Sequential, x, y *Mat, cfg TrainConfig) ([]float64, error) {
	if x.Rows != y.Rows {
		return nil, fmt.Errorf("nn: %d samples vs %d targets", x.Rows, y.Rows)
	}
	if err := cfg.validate(x.Rows); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	params := model.Params()
	var replicas []*Sequential
	if cfg.Workers > 1 {
		replicas = make([]*Sequential, cfg.Workers)
		for w := range replicas {
			rep, err := model.Replica()
			if err != nil {
				return nil, err
			}
			replicas[w] = rep
		}
	}
	order := make([]int, x.Rows)
	for i := range order {
		order[i] = i
	}
	// Carve a stable validation split off a one-time shuffle.
	var valIdx []int
	if cfg.ValFrac > 0 {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		nVal := int(cfg.ValFrac * float64(len(order)))
		valIdx = append([]int(nil), order[len(order)-nVal:]...)
		order = order[:len(order)-nVal]
	}

	evalVal := func() float64 {
		bx := NewMat(len(valIdx), x.Cols)
		by := NewMat(len(valIdx), y.Cols)
		for i, ix := range valIdx {
			copy(bx.Row(i), x.Row(ix))
			copy(by.Row(i), y.Row(ix))
		}
		return cfg.Loss.Forward(model.Forward(bx), by)
	}

	o := cfg.Obs
	trainSpan := o.Span("nn.train", nil)
	trainSpan.SetAttr("samples", len(order))
	defer trainSpan.End()
	microM := pool.NewMetrics(o, "nn.microbatch")
	history := make([]float64, 0, cfg.Epochs)
	bestVal := math.Inf(1)
	stale := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochSpan := o.Span("nn.epoch", trainSpan)
		epochSpan.SetAttr("epoch", epoch)
		epochStart := time.Now()
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss, batches := 0.0, 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			var loss float64
			if replicas != nil {
				loss = parallelBatch(replicas, x, y, order[start:end], cfg.Loss, params, microM)
			} else {
				bx := NewMat(end-start, x.Cols)
				by := NewMat(end-start, y.Cols)
				for i, ix := range order[start:end] {
					copy(bx.Row(i), x.Row(ix))
					copy(by.Row(i), y.Row(ix))
				}
				pred := model.Forward(bx)
				loss = cfg.Loss.Forward(pred, by)
				ZeroGrad(params)
				model.Backward(cfg.Loss.Backward(pred, by))
			}
			if math.IsNaN(loss) || math.IsInf(loss, 0) {
				return history, fmt.Errorf("nn: loss diverged to %v at epoch %d", loss, epoch)
			}
			cfg.Optimizer.Step(params)
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		history = append(history, epochLoss)
		if o != nil {
			o.Counter("nn.epochs").Add(1)
			o.Counter("nn.batches").Add(int64(batches))
			o.Counter("nn.rows_processed").Add(int64(len(order)))
			o.Gauge("nn.epoch").Set(float64(epoch))
			o.Gauge("nn.train_loss").Set(epochLoss)
			o.Gauge("nn.grad_norm").Set(gradNorm(params))
			if dt := time.Since(epochStart).Seconds(); dt > 0 {
				o.Gauge("nn.rows_per_second").Set(float64(len(order)) / dt)
			}
			epochSpan.SetAttr("loss", epochLoss)
		}
		epochSpan.End()
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss)
		}
		if cfg.Patience > 0 {
			v := evalVal()
			o.Gauge("nn.val_loss").Set(v)
			if v < bestVal-1e-12 {
				bestVal = v
				stale = 0
			} else {
				stale++
				if stale >= cfg.Patience {
					break
				}
			}
		}
	}
	return history, nil
}

// gradNorm returns the L2 norm of the parameter gradients left by the last
// optimizer step's batch — a cheap divergence signal for dashboards.
func gradNorm(params []*Param) float64 {
	var sum float64
	for _, p := range params {
		for _, g := range p.Grad {
			sum += g * g
		}
	}
	return math.Sqrt(sum)
}

// parallelBatch computes the loss and parameter gradients for the batch
// rows idx by fanning fixed-size micro-batches across the replicas. Each
// chunk's loss and gradient land in a snapshot slot indexed by chunk, and
// the snapshots are combined sequentially in chunk order weighted by chunk
// size, so the accumulated gradient in params is independent of the number
// of replicas. The batch loss is left for the caller to check and the
// optimizer step is the caller's too — during the fan-out, parameter values
// are strictly read-only. m, when non-nil, records per-micro-batch pool
// telemetry (queue depth, wait and task time) under pool.nn.microbatch.*;
// telemetry never alters chunking or summation order.
func parallelBatch(replicas []*Sequential, x, y *Mat, idx []int, loss Loss, params []*Param, m *pool.Metrics) float64 {
	nChunks := (len(idx) + microBatchRows - 1) / microBatchRows
	type snapshot struct {
		rows  int
		loss  float64
		grads [][]float64
	}
	snaps := make([]snapshot, nChunks)
	pool.Run(context.Background(), nChunks, len(replicas), m, func(worker, c int) error {
		rep := replicas[worker]
		repParams := rep.Params()
		lo := c * microBatchRows
		hi := lo + microBatchRows
		if hi > len(idx) {
			hi = len(idx)
		}
		bx := NewMat(hi-lo, x.Cols)
		by := NewMat(hi-lo, y.Cols)
		for i, ix := range idx[lo:hi] {
			copy(bx.Row(i), x.Row(ix))
			copy(by.Row(i), y.Row(ix))
		}
		pred := rep.Forward(bx)
		ZeroGrad(repParams)
		rep.Backward(loss.Backward(pred, by))
		grads := make([][]float64, len(repParams))
		for p, rp := range repParams {
			grads[p] = append([]float64(nil), rp.Grad...)
		}
		snaps[c] = snapshot{rows: hi - lo, loss: loss.Forward(pred, by), grads: grads}
		return nil
	})
	total := float64(len(idx))
	ZeroGrad(params)
	batchLoss := 0.0
	for _, s := range snaps {
		wgt := float64(s.rows) / total
		batchLoss += s.loss * wgt
		for p, g := range s.grads {
			dst := params[p].Grad
			for i, v := range g {
				dst[i] += v * wgt
			}
		}
	}
	return batchLoss
}

// Predict runs the model over x in inference mode and returns the outputs.
func Predict(model *Sequential, x *Mat) *Mat { return model.Forward(x) }

// Scaler standardizes features column-wise to zero mean and unit variance —
// fitted on the training split only, then applied to both splits.
type Scaler struct {
	Mean []float64
	Std  []float64
}

// FitScaler computes column statistics of x. Constant columns get unit
// scale so transformed values stay finite.
func FitScaler(x *Mat) *Scaler {
	s := &Scaler{Mean: make([]float64, x.Cols), Std: make([]float64, x.Cols)}
	if x.Rows == 0 {
		for j := range s.Std {
			s.Std[j] = 1
		}
		return s
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			s.Mean[j] += v
		}
	}
	n := float64(x.Rows)
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		for j, v := range x.Row(i) {
			d := v - s.Mean[j]
			s.Std[j] += d * d
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / n)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns a standardized copy of x.
func (s *Scaler) Transform(x *Mat) *Mat {
	if x.Cols != len(s.Mean) {
		panic(fmt.Sprintf("nn: scaler fitted on %d cols, got %d", len(s.Mean), x.Cols))
	}
	out := x.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
	return out
}

// TransformRow standardizes a single feature vector in place.
func (s *Scaler) TransformRow(row []float64) {
	if len(row) != len(s.Mean) {
		panic(fmt.Sprintf("nn: scaler fitted on %d cols, got %d", len(s.Mean), len(row)))
	}
	for j := range row {
		row[j] = (row[j] - s.Mean[j]) / s.Std[j]
	}
}
