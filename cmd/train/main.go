// Command train performs the offline training stage of the DNN-based
// progressive retrieval framework: it sweeps compression experiments over
// field files, harvests training records, and fits either the D-MGARD
// plane-count predictor or the E-MGARD error-constant model.
//
// Usage:
//
//	train -mode dmgard -fields 'data/warpx_Jx_*.field' -out dmgard.gob
//	train -mode emgard -fields 'data/warpx_Jx_*.field' -out emgard.gob
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/fieldio"
	"pmgard/internal/obs"
)

func main() {
	var (
		mode    = flag.String("mode", "dmgard", "model to train: dmgard or emgard")
		fields  = flag.String("fields", "", "glob of input field files")
		out     = flag.String("out", "", "output model file")
		epochs  = flag.Int("epochs", 0, "training epochs (0 = model default)")
		lr      = flag.Float64("lr", 0, "learning rate (0 = model default)")
		seed    = flag.Int64("seed", 1, "training seed")
		quiet   = flag.Bool("q", false, "suppress per-file progress")
		boundsN = flag.Int("bounds", 81, "number of relative error bounds in the sweep (≤81)")
	)
	var of obs.Flags
	of.Register(flag.CommandLine)
	flag.Parse()
	o, err := of.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	if err := run(*mode, *fields, *out, *epochs, *lr, *seed, *quiet, *boundsN, o); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
	if err := of.Finish(o); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

func run(mode, fieldsGlob, out string, epochs int, lr float64, seed int64, quiet bool, boundsN int, o *obs.Obs) error {
	if fieldsGlob == "" || out == "" {
		return fmt.Errorf("-fields and -out are required")
	}
	paths, err := filepath.Glob(fieldsGlob)
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no files match %q", fieldsGlob)
	}
	sort.Strings(paths)
	bounds := dmgard.DefaultRelBounds()
	if boundsN > 0 && boundsN < len(bounds) {
		thinned := make([]float64, 0, boundsN)
		for i := 0; i < boundsN; i++ {
			thinned = append(thinned, bounds[i*(len(bounds)-1)/(boundsN-1)])
		}
		bounds = thinned
	}
	cfg := core.DefaultConfig()
	cfg.Obs = o // the harvest sweeps compress through the same pipeline
	unit := map[string]string{"dmgard": "records", "emgard": "samples"}[mode]
	if unit == "" {
		return fmt.Errorf("unknown mode %q (have dmgard, emgard)", mode)
	}
	// Each field file is compressed and swept under theory control once;
	// the mode picks which model's training set is read off the sweep.
	var records []dmgard.Record
	var samples []emgard.Sample
	for _, p := range paths {
		meta, field, err := fieldio.Read(p)
		if err != nil {
			return err
		}
		c, sweep, err := core.TheorySweep(field, cfg, meta.Field, meta.Timestep, bounds)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if mode == "dmgard" {
			records = append(records, dmgard.Records(field, &c.Header, sweep)...)
		} else {
			samples = append(samples, emgard.Samples(&c.Header, sweep)...)
		}
		if !quiet {
			fmt.Printf("harvested %s: %d %s (total %d)\n", p, len(sweep), unit, len(records)+len(samples))
		}
	}

	if mode == "dmgard" {
		tc := dmgard.DefaultConfig()
		tc.Seed = seed
		tc.Obs = o
		if epochs > 0 {
			tc.Epochs = epochs
		}
		if lr > 0 {
			tc.LR = lr
		}
		fmt.Printf("training D-MGARD on %d records (%d epochs, lr %g)...\n", len(records), tc.Epochs, tc.LR)
		m, err := dmgard.Train(records, cfg.Planes, tc)
		if err != nil {
			return err
		}
		if err := m.Save(out); err != nil {
			return err
		}
		fmt.Printf("saved D-MGARD model (%d levels) to %s\n", m.Levels(), out)
	} else {
		tc := emgard.DefaultConfig()
		tc.Seed = seed
		tc.Obs = o
		if epochs > 0 {
			tc.Epochs = epochs
		}
		if lr > 0 {
			tc.LR = lr
		}
		fmt.Printf("training E-MGARD on %d samples (%d epochs, lr %g)...\n", len(samples), tc.Epochs, tc.LR)
		m, err := emgard.Train(samples, tc)
		if err != nil {
			return err
		}
		if err := m.Save(out); err != nil {
			return err
		}
		fmt.Printf("saved E-MGARD model (%d levels) to %s\n", m.Levels(), out)
	}
	return nil
}
