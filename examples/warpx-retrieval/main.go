// WarpX retrieval comparison: train D-MGARD and E-MGARD on early timesteps
// of a synthetic laser-wakefield run, then compare the bytes each error-
// control strategy fetches on later timesteps — the paper's headline
// experiment (Fig. 13) as a runnable program.
//
// Run with: go run ./examples/warpx-retrieval
package main

import (
	"context"
	"fmt"
	"log"

	"pmgard/internal/core"
	"pmgard/internal/dmgard"
	"pmgard/internal/emgard"
	"pmgard/internal/features"
	"pmgard/internal/grid"
	"pmgard/internal/retrieval"
	"pmgard/internal/sim/warpx"
)

const (
	steps     = 16
	trainHalf = 8
)

func main() {
	simCfg := warpx.DefaultConfig(17, 17, 17)
	compCfg := core.DefaultConfig()
	bounds := dmgard.DefaultRelBounds()

	// Offline stage: sweep compression experiments on the first half of the
	// run and train both models (§III, Fig. 4).
	fmt.Println("harvesting training sweeps on the first half of the run ...")
	var drecs []dmgard.Record
	var esamps []emgard.Sample
	for t := 0; t < trainHalf; t++ {
		field, err := simCfg.Field("Jx", t)
		if err != nil {
			log.Fatal(err)
		}
		c, sweep, err := core.TheorySweep(field, compCfg, "Jx", t, bounds)
		if err != nil {
			log.Fatal(err)
		}
		drecs = append(drecs, dmgard.Records(field, &c.Header, sweep)...)
		esamps = append(esamps, emgard.Samples(&c.Header, sweep)...)
	}
	dcfg := dmgard.DefaultConfig()
	dm, err := dmgard.Train(drecs, compCfg.Planes, dcfg)
	if err != nil {
		log.Fatal(err)
	}
	ecfg := emgard.DefaultConfig()
	em, err := emgard.Train(esamps, ecfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained D-MGARD on %d records, E-MGARD on %d samples\n\n", len(drecs), len(esamps))

	// Online stage: retrieve unseen timesteps under each strategy.
	fmt.Println("rel_bound  mgard_bytes  dmgard_bytes  emgard_bytes  sav_D%  sav_E%")
	for _, rel := range []float64{1e-6, 1e-4, 1e-2} {
		var mB, dB, eB int64
		for t := trainHalf; t < steps; t++ {
			field, err := simCfg.Field("Jx", t)
			if err != nil {
				log.Fatal(err)
			}
			c, err := core.Compress(field, compCfg, "Jx", t)
			if err != nil {
				log.Fatal(err)
			}
			h := &c.Header
			tol := h.AbsTolerance(rel)

			// Original MGARD: theory-based greedy control.
			_, planM, err := core.RetrieveTolerance(context.Background(), h, c, h.TheoryBound(), tol, core.RetrieveOptions{})
			if err != nil {
				log.Fatal(err)
			}
			mB += planM.Bytes

			// D-MGARD: predict plane counts directly, then size-interpret.
			feat := dmgard.CombineFeatures(features.Extract(field, t), h)
			planes, err := dm.Predict(feat, rel)
			if err != nil {
				log.Fatal(err)
			}
			recD, planD, err := core.RetrievePlanes(context.Background(), h, c, planes, core.RetrieveOptions{})
			if err != nil {
				log.Fatal(err)
			}
			dB += planD.Bytes
			_ = recD

			// E-MGARD: learned per-level constants in the same greedy loop.
			cs, err := em.Constants(h.LevelPools)
			if err != nil {
				log.Fatal(err)
			}
			est := retrieval.PerLevel(h.LevelInfos(), cs)
			recE, planE, err := core.RetrieveTolerance(context.Background(), h, c, est, tol, core.RetrieveOptions{})
			if err != nil {
				log.Fatal(err)
			}
			eB += planE.Bytes
			if e := grid.MaxAbsDiff(field, recE); e > tol {
				fmt.Printf("  note: E-MGARD overshot at t=%d (%.2e > %.2e)\n", t, e, tol)
			}
		}
		fmt.Printf("%9.0e %12d %13d %13d %6.1f %6.1f\n",
			rel, mB, dB, eB,
			100*float64(mB-dB)/float64(mB),
			100*float64(mB-eB)/float64(mB))
	}
	fmt.Println("\n(the paper reports 5–40% savings for D-MGARD and 20–80% for E-MGARD)")
}
