// Command mgard drives the progressive compression and retrieval pipeline
// on field files.
//
// Subcommands:
//
//	mgard compress -in field.field -out field.pmgd [-levels 5 -planes 32 -codec deflate]
//	               [-workers N]  (pipeline worker count; 0 = one per CPU,
//	               1 = sequential — the output bytes are identical either way)
//	mgard compress -in field.field -tiered dir/      (place levels across storage tiers)
//	mgard inspect  -in field.pmgd|dir/
//	mgard retrieve -in field.pmgd|dir/ -rel 1e-4 [-control exact|theory|emgard|planes]
//	               [-model emgard.gob] [-planes 12,10,8,6,4] [-workers N]
//	               [-orig field.field] [-out recon.field]
//	               (-in takes either layout: a .pmgd file or a tiered
//	               directory holding a manifest.json)
//	mgard retrieve -in field.pmgd -rel 1e-4 -fault-rate 0.2 -fault-seed 7
//	               (inject deterministic transient faults and retrieve
//	               through the retry/backoff layer; -retries caps attempts)
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/emgard"
	"pmgard/internal/faults"
	"pmgard/internal/fieldio"
	"pmgard/internal/grid"
	"pmgard/internal/lossless"
	"pmgard/internal/obs"
	"pmgard/internal/retrieval"
	"pmgard/internal/storage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "retrieve":
		err = cmdRetrieve(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgard:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: mgard <compress|inspect|retrieve> [flags]")
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input field file")
	out := fs.String("out", "", "output .pmgd file")
	tiered := fs.String("tiered", "", "output tiered-store directory (instead of -out)")
	tiles := fs.String("tiles", "", "output tiled-artifact directory for out-of-core compression (instead of -out)")
	memBudget := fs.String("mem-budget", "", "working-set byte cap for -tiles, e.g. 64M or 1G (0 = one tile)")
	levels := fs.Int("levels", 5, "coefficient levels")
	planes := fs.Int("planes", 32, "bit-planes per level")
	codecName := fs.String("codec", "deflate", "lossless codec: deflate or raw")
	workers := fs.Int("workers", 0, "pipeline worker count (0 = one per CPU, 1 = sequential)")
	var of obs.Flags
	of.Register(fs)
	fs.Parse(args)
	if *in == "" || (*out == "" && *tiered == "" && *tiles == "") {
		return fmt.Errorf("compress: -in and one of -out/-tiered/-tiles are required")
	}
	o, err := of.Start(os.Stderr)
	if err != nil {
		return err
	}
	cod, err := lossless.ByName(*codecName)
	if err != nil {
		return err
	}
	cfg := core.Config{
		Decompose:   codec.Options{Levels: *levels, Update: true, UpdateWeight: 0.25},
		Planes:      *planes,
		Codec:       cod,
		Parallelism: *workers,
		Obs:         o,
	}

	if *tiles != "" {
		// Out-of-core: the field is streamed slab by slab through the
		// windowed reader; it is never resident in full.
		budget, err := parseBytes(*memBudget)
		if err != nil {
			return fmt.Errorf("compress: -mem-budget: %w", err)
		}
		r, err := fieldio.OpenReader(*in)
		if err != nil {
			return err
		}
		defer r.Close()
		ts, err := core.CompressTiled(r, cfg, *tiles, core.TileOptions{MemBudget: budget})
		if err != nil {
			return err
		}
		raw := int64(8)
		for _, d := range ts.Dims {
			raw *= int64(d)
		}
		stored := ts.TotalBytes()
		fmt.Printf("compressed %s (t=%d, dims %v) into %d tiles: %d → %d payload bytes (%.2fx)\n",
			ts.Field, ts.Timestep, ts.Dims, len(ts.Tiles), raw, stored, float64(raw)/float64(stored))
		return of.Finish(o)
	}

	meta, field, err := fieldio.Read(*in)
	if err != nil {
		return err
	}
	var h *core.Header
	if *tiered != "" {
		hier, err := storage.DefaultHierarchy(*levels)
		if err != nil {
			return err
		}
		h, err = core.CompressToTiered(field, cfg, meta.Field, meta.Timestep, *tiered, hier)
		if err != nil {
			return err
		}
	} else {
		// Segments stream to disk as planes finish compressing; the
		// output bytes are identical to the in-memory path at any worker
		// count.
		h, err = core.CompressToFile(field, cfg, meta.Field, meta.Timestep, *out)
		if err != nil {
			return err
		}
	}
	raw := int64(8 * field.Len())
	stored := h.TotalBytes()
	fmt.Printf("compressed %s (t=%d, dims %v): %d → %d payload bytes (%.2fx)\n",
		meta.Field, meta.Timestep, field.Dims(), raw, stored, float64(raw)/float64(stored))
	return of.Finish(o)
}

// parseBytes parses a byte size like "67108864", "64M" or "1G"; empty
// means 0. A size past int64 is refused, not wrapped.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte size %q overflows int64", s)
	}
	return v * mult, nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	in := fs.String("in", "", "input .pmgd file or tiered-store directory")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("inspect: -in is required")
	}
	h, st, err := core.OpenFile(*in)
	if err != nil {
		return err
	}
	defer st.Close()
	fmt.Printf("field %s  t=%d  dims %v  planes %d  codec %s  range %.6g\n",
		h.FieldName, h.Timestep, h.Dims, h.Planes, h.CodecName, h.ValueRange)
	backend, err := codec.ByID(h.Codec())
	if err != nil {
		return err
	}
	// The served bound is Σ_l C_l·Err[l][b_l] with these C_l (Header.Bound).
	fmt.Printf("theory constant C = %.4g; exact per-level C_l = %.4g; stored payload %d bytes\n",
		h.TheoryBound().C, backend.LevelAmplification(h.Dims, h.CodecOptions()), h.TotalBytes())
	for l, lm := range h.Levels {
		var total int64
		for _, s := range lm.PlaneSizes {
			total += s
		}
		fmt.Printf("  level %d: %7d coeffs  exp %4d  bytes %8d  Err[0]=%.3e  Err[B]=%.3e",
			l, lm.N, lm.Exponent, total, lm.ErrMatrix[0], lm.ErrMatrix[len(lm.ErrMatrix)-1])
		if tier, err := st.TierOf(l); err == nil {
			fmt.Printf("  tier %s", tier)
		}
		fmt.Println()
	}
	return nil
}

func cmdRetrieve(args []string) error {
	fs := flag.NewFlagSet("retrieve", flag.ExitOnError)
	in := fs.String("in", "", "input .pmgd file or tiered-store directory")
	tiles := fs.String("tiles", "", "input tiled-artifact directory (instead of -in); streams slabs to -out")
	rel := fs.Float64("rel", 0, "relative error bound")
	abs := fs.Float64("abs", 0, "absolute error bound (overrides -rel)")
	control := fs.String("control", "exact", "error control: exact (the per-level bound every read path plans with), theory (Eq. 6), emgard or planes")
	model := fs.String("model", "", "trained E-MGARD model (for -control emgard)")
	planesArg := fs.String("planes", "", "comma-separated per-level plane counts (for -control planes)")
	orig := fs.String("orig", "", "original field file, to report the achieved error")
	out := fs.String("out", "", "write the reconstruction to this field file")
	faultRate := fs.Float64("fault-rate", 0, "inject transient read faults at this rate (0..1) for resilience testing")
	faultSeed := fs.Int64("fault-seed", 1, "seed for deterministic fault injection")
	retries := fs.Int("retries", 0, "max read attempts per segment through the retry layer (0 = library default)")
	workers := fs.Int("workers", 0, "retrieval worker count (0 = one per CPU, 1 = sequential)")
	var of obs.Flags
	of.Register(fs)
	fs.Parse(args)
	if *in == "" && *tiles == "" {
		return fmt.Errorf("retrieve: -in or -tiles is required")
	}
	o, oErr := of.Start(os.Stderr)
	if oErr != nil {
		return oErr
	}
	if *tiles != "" {
		if *out == "" {
			return fmt.Errorf("retrieve: -tiles requires -out (slabs stream to a field file)")
		}
		if *rel == 0 {
			return fmt.Errorf("retrieve: -tiles requires -rel")
		}
		ts, stats, err := core.RetrieveTiledRel(*tiles, *rel, *out, *workers)
		if err != nil {
			return err
		}
		fmt.Printf("retrieved %d tiles: %d of %d stored bytes (%.1f%%)\n",
			len(ts.Tiles), stats.BytesFetched, stats.BytesStored,
			100*float64(stats.BytesFetched)/float64(stats.BytesStored))
		if *orig != "" {
			_, origField, err := fieldio.Read(*orig)
			if err != nil {
				return err
			}
			_, rec, err := fieldio.Read(*out)
			if err != nil {
				return err
			}
			fmt.Printf("achieved max abs error: %.6e (requested %.6e)\n",
				grid.MaxAbsDiff(origField, rec), *rel*ts.ValueRange)
		}
		fmt.Printf("wrote reconstruction to %s\n", *out)
		return of.Finish(o)
	}
	h, st, err := core.OpenFile(*in)
	if err != nil {
		return err
	}
	defer st.Close()
	st.Instrument(o)
	var src storage.SegmentSource = st

	if *faultRate < 0 || *faultRate > 1 {
		return fmt.Errorf("retrieve: -fault-rate %g out of [0,1]", *faultRate)
	}
	var flaky *faults.Source
	var retrying *storage.RetryingSource
	if *faultRate > 0 || *retries > 0 {
		if *faultRate > 0 {
			flaky = faults.WrapSource(src, faults.Config{Seed: *faultSeed, TransientRate: *faultRate}, o)
			src = flaky
		}
		pol := storage.DefaultRetryPolicy()
		if *retries > 0 {
			pol.MaxAttempts = *retries
		}
		retrying = storage.NewRetryingSource(src, pol, o)
		src = retrying
	}

	tol := *abs
	if tol == 0 && *control != "planes" {
		if *rel == 0 {
			return fmt.Errorf("retrieve: need -rel or -abs (unless -control planes)")
		}
		tol = h.AbsTolerance(*rel)
	}

	var rec *grid.Tensor
	var plan retrieval.Plan
	switch *control {
	case "exact":
		rec, plan, err = core.RetrieveTolerance(context.Background(), h, src, h.Bound(), tol, core.RetrieveOptions{Workers: *workers, Obs: o})
	case "theory":
		rec, plan, err = core.RetrieveTolerance(context.Background(), h, src, h.TheoryBound(), tol, core.RetrieveOptions{Workers: *workers, Obs: o})
	case "emgard":
		if *model == "" {
			return fmt.Errorf("retrieve: -control emgard requires -model")
		}
		var m *emgard.Model
		m, err = emgard.Load(*model)
		if err != nil {
			return err
		}
		var cs []float64
		if cs, err = m.Constants(h.LevelPools); err != nil {
			return err
		}
		rec, plan, err = core.RetrieveTolerance(context.Background(), h, src, retrieval.PerLevel(h.LevelInfos(), cs), tol, core.RetrieveOptions{Workers: *workers, Obs: o})
	case "planes":
		if *planesArg == "" {
			return fmt.Errorf("retrieve: -control planes requires -planes")
		}
		var planes []int
		for _, s := range strings.Split(*planesArg, ",") {
			v, perr := strconv.Atoi(strings.TrimSpace(s))
			if perr != nil {
				return fmt.Errorf("retrieve: bad plane count %q", s)
			}
			planes = append(planes, v)
		}
		rec, plan, err = core.RetrievePlanes(context.Background(), h, src, planes, core.RetrieveOptions{Workers: *workers, Obs: o})
	default:
		return fmt.Errorf("retrieve: unknown control %q", *control)
	}
	if err != nil {
		return err
	}

	fmt.Printf("plan: planes per level %v\n", plan.Planes)
	if *control != "planes" && !(plan.EstimatedError <= tol) {
		fmt.Printf("unreachable: every plane fetched, bound %.6e still above tolerance %.6e\n", plan.EstimatedError, tol)
	}
	printFaultReport(retrying, flaky, *faultRate, *faultSeed)
	fmt.Printf("retrieved %d of %d stored bytes (%.1f%%) in %d ranged reads\n",
		st.BytesRead(), h.TotalBytes(),
		100*float64(st.BytesRead())/float64(h.TotalBytes()), st.Requests())
	tierReads := st.TierRequests()
	for tier, b := range st.TierBytes() {
		fmt.Printf("tier %-6s %8d bytes in %d reads\n", tier, b, tierReads[tier])
	}

	hier, err := storage.DefaultHierarchy(len(h.Levels))
	if err == nil {
		// A plane prefix is contiguous in the store layout, so each level
		// costs one ranged read.
		reqs := make([]int, len(plan.Planes))
		for l, b := range plan.Planes {
			if b > 0 {
				reqs[l] = 1
			}
		}
		if tm, terr := hier.PlanTime(plan.BytesPerLevel, reqs); terr == nil {
			fmt.Printf("modeled I/O time on default hierarchy: %.4g s\n", tm)
		}
		if o != nil {
			// Per-tier modeled read time, so the metrics snapshot carries
			// the same cost model the report prints.
			perTier := make(map[string]float64)
			for l := range plan.BytesPerLevel {
				if t, terr := hier.ReadTime(l, plan.BytesPerLevel[l], reqs[l]); terr == nil {
					perTier[hier.Tiers[hier.Placement[l]].Name] += t
				}
			}
			for name, t := range perTier {
				o.Gauge("storage.tier." + name + ".modeled_read_seconds").Set(t)
			}
		}
	}
	if *orig != "" {
		_, origField, err := fieldio.Read(*orig)
		if err != nil {
			return err
		}
		fmt.Printf("achieved max abs error: %.6e (requested %.6e)\n",
			grid.MaxAbsDiff(origField, rec), tol)
		fmt.Printf("PSNR: %.2f dB\n", grid.PSNR(origField, rec))
	}
	if *out != "" {
		if err := fieldio.Write(*out, fieldio.Meta{Field: h.FieldName, Timestep: h.Timestep}, rec); err != nil {
			return err
		}
		fmt.Printf("wrote reconstruction to %s\n", *out)
	}
	return of.Finish(o)
}

// printFaultReport prints one coherent view of a fault-injected run: the
// injector's counts (what went wrong) interleaved with the retry layer's
// (what it cost to recover). Both read the same live counters the metrics
// snapshot exports, so the report and -metrics-out always agree.
func printFaultReport(retrying *storage.RetryingSource, flaky *faults.Source, rate float64, seed int64) {
	if retrying == nil && flaky == nil {
		return
	}
	fmt.Println("fault report:")
	if flaky != nil {
		is := flaky.Stats()
		fmt.Printf("  injected:  %d transient, %d permanent, %d corrupted, %d truncated over %d source reads (rate %.2g, seed %d)\n",
			is.Transient, is.Permanent, is.Corrupted, is.Truncated, is.Reads, rate, seed)
	}
	if retrying != nil {
		rs := retrying.Stats()
		fmt.Printf("  recovery:  %d reads, %d retries, %d recovered, %d exhausted, %d quarantined\n",
			rs.Reads, rs.Retries, rs.Recovered, rs.Exhausted, rs.Quarantined)
		fmt.Printf("  transfer:  %d bytes delivered, %d bytes wasted, %.3gs backing off\n",
			rs.BytesTransferred, rs.BytesWasted, rs.BackoffSeconds)
	}
}
