package experiments

import (
	"fmt"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/features"
	"pmgard/internal/grid"
	"pmgard/internal/sim/warpx"
)

// fieldProvider yields a field of one variable at a timestep.
type fieldProvider func(t int) (*grid.Tensor, error)

// warpxProvider binds a synthetic WarpX field name to a provider.
func warpxProvider(p Params, name string) fieldProvider {
	cfg := warpx.DefaultConfig(p.WarpXDims...)
	return func(t int) (*grid.Tensor, error) { return warpxField(cfg, name, t) }
}

// grayScottProvider binds a Gray-Scott field name to a provider.
func grayScottProvider(p Params, name string) fieldProvider {
	return func(t int) (*grid.Tensor, error) { return grayScottField(p.GrayScottN, p.Steps, name, t) }
}

// harvestBoth runs the offline stage over timesteps [t0, t1) of one field:
// each is compressed and swept under theory control once, and both models'
// training sets are read off that sweep.
func harvestBoth(cfg core.Config, bounds []float64, name string, prov fieldProvider, t0, t1 int) ([]dmgard.Record, []emgard.Sample, error) {
	var records []dmgard.Record
	var samples []emgard.Sample
	for t := t0; t < t1; t++ {
		field, err := prov(t)
		if err != nil {
			return nil, nil, err
		}
		c, sweep, err := core.TheorySweep(field, cfg, name, t, bounds)
		if err != nil {
			return nil, nil, err
		}
		records = append(records, dmgard.Records(field, &c.Header, sweep)...)
		samples = append(samples, emgard.Samples(&c.Header, sweep)...)
	}
	return records, samples, nil
}

// harvestRange collects D-MGARD training/evaluation records for one field
// over [t0, t1).
func harvestRange(p Params, name string, prov fieldProvider, t0, t1 int) ([]dmgard.Record, error) {
	records, _, err := harvestBoth(p.Compress, p.Bounds, name, prov, t0, t1)
	return records, err
}

// predictionErrDist evaluates a trained D-MGARD model on records and
// returns, per level, the distribution of (predicted − actual) plane
// counts bucketed into {≤−3, −2, −1, 0, +1, +2, ≥+3}, as percentages.
func predictionErrDist(m *dmgard.Model, records []dmgard.Record) ([][7]float64, error) {
	levels := m.Levels()
	counts := make([][7]int, levels)
	for _, r := range records {
		pred, err := m.Predict(r.Features, r.AchievedErr)
		if err != nil {
			return nil, err
		}
		for l := 0; l < levels; l++ {
			d := pred[l] - r.Planes[l]
			switch {
			case d <= -3:
				counts[l][0]++
			case d >= 3:
				counts[l][6]++
			default:
				counts[l][d+3]++
			}
		}
	}
	out := make([][7]float64, levels)
	n := float64(len(records))
	for l := range counts {
		for b := range counts[l] {
			out[l][b] = 100 * float64(counts[l][b]) / n
		}
	}
	return out, nil
}

var distBuckets = []string{"<=-3", "-2", "-1", "0", "+1", "+2", ">=+3"}

// distTable renders a per-level prediction-error distribution.
func distTable(id, title, note string, dist [][7]float64) *Table {
	t := &Table{ID: id, Title: title, Note: note}
	t.Columns = append(t.Columns, "level")
	t.Columns = append(t.Columns, distBuckets...)
	t.Columns = append(t.Columns, "within1_pct")
	for l, d := range dist {
		row := []any{fmt.Sprintf("level_%d", l)}
		for _, v := range d {
			row = append(row, v)
		}
		row = append(row, d[2]+d[3]+d[4])
		t.AddRow(row...)
	}
	return t
}

// Fig9 reproduces Fig. 9: D-MGARD prediction-error distributions on the
// WarpX application. The model trains on the first half of J_x's timesteps
// and is evaluated on J_x's second half and on all timesteps of B_x and
// E_x.
func Fig9(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	half := p.Steps / 2
	train, err := harvestRange(p, "Jx", warpxProvider(p, "Jx"), 0, half)
	if err != nil {
		return nil, err
	}
	model, err := dmgard.Train(train, p.Compress.Planes, p.DTrain)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	evals := []struct {
		name   string
		t0, t1 int
	}{
		{"Jx", half, p.Steps},
		{"Bx", 0, p.Steps},
		{"Ex", 0, p.Steps},
	}
	for _, e := range evals {
		recs, err := harvestRange(p, e.name, warpxProvider(p, e.name), e.t0, e.t1)
		if err != nil {
			return nil, err
		}
		dist, err := predictionErrDist(model, recs)
		if err != nil {
			return nil, err
		}
		tables = append(tables, distTable(
			"fig9",
			fmt.Sprintf("D-MGARD prediction error distribution (%%), WarpX %s", e.name),
			fmt.Sprintf("trained on Jx t∈[0,%d); evaluated on %s t∈[%d,%d); %d records",
				half, e.name, e.t0, e.t1, len(recs)),
			dist))
	}
	return tables, nil
}

// Fig10 reproduces Fig. 10: the same protocol on the Gray-Scott
// application — train on D_u's first half, evaluate on D_u's second half
// and on all of D_v.
func Fig10(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	half := p.Steps / 2
	train, err := harvestRange(p, "Du", grayScottProvider(p, "Du"), 0, half)
	if err != nil {
		return nil, err
	}
	model, err := dmgard.Train(train, p.Compress.Planes, p.DTrain)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	evals := []struct {
		name   string
		t0, t1 int
	}{
		{"Du", half, p.Steps},
		{"Dv", 0, p.Steps},
	}
	for _, e := range evals {
		recs, err := harvestRange(p, e.name, grayScottProvider(p, e.name), e.t0, e.t1)
		if err != nil {
			return nil, err
		}
		dist, err := predictionErrDist(model, recs)
		if err != nil {
			return nil, err
		}
		tables = append(tables, distTable(
			"fig10",
			fmt.Sprintf("D-MGARD prediction error distribution (%%), Gray-Scott %s", e.name),
			fmt.Sprintf("trained on Du t∈[0,%d); evaluated on %s t∈[%d,%d); %d records",
				half, e.name, e.t0, e.t1, len(recs)),
			dist))
	}
	return tables, nil
}

// Fig11 reproduces Fig. 11: cross-resolution generalization. The model
// trains on J_x at a low resolution and is evaluated at 2× and 4× that
// resolution (the paper's 64³→128³/256³, scaled to this reproduction's
// grids). Features are resolution-sensitive, so accuracy degrading with
// the resolution gap is the expected (and reported) behaviour.
func Fig11(p Params) ([]*Table, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	baseN := 9
	resolutions := []int{9, 17, 33}
	provAt := func(n int) fieldProvider {
		cfg := warpx.DefaultConfig(n, n, n)
		return func(t int) (*grid.Tensor, error) { return warpxField(cfg, "Jx", t) }
	}
	train, err := harvestRange(p, "Jx", provAt(baseN), 0, p.Steps/2)
	if err != nil {
		return nil, err
	}
	model, err := dmgard.Train(train, p.Compress.Planes, p.DTrain)
	if err != nil {
		return nil, err
	}
	var tables []*Table
	for _, n := range resolutions {
		recs, err := harvestRange(p, "Jx", provAt(n), p.Steps/2, p.Steps)
		if err != nil {
			return nil, err
		}
		dist, err := predictionErrDist(model, recs)
		if err != nil {
			return nil, err
		}
		tables = append(tables, distTable(
			"fig11",
			fmt.Sprintf("D-MGARD cross-resolution prediction error (%%), trained %d³, tested %d³", baseN, n),
			fmt.Sprintf("WarpX Jx; %d records; features: %d", len(recs), features.Count()),
			dist))
	}
	return tables, nil
}
