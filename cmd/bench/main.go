// Command bench regenerates the paper's tables and figures (DESIGN.md §3)
// and prints them as aligned text tables.
//
// Usage:
//
//	bench -exp all                 # every experiment at default scale
//	bench -exp fig13 -steps 64     # one experiment, more timesteps
//	bench -list                    # list experiment ids
//	bench -exp fig9 -quick         # smoke-test scale
//	bench -exp fig1 -csv out/      # also write each table as CSV
//
// Experiments report counts — bytes, planes, reads, hit rates, errors,
// accuracy — never wall clock; timing is `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pmgard/internal/experiments"
)

func main() {
	var (
		exp    = flag.String("exp", "all", "experiment id or 'all'")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		quick  = flag.Bool("quick", false, "use smoke-test scale")
		dims   = flag.String("dims", "", "WarpX dims override, e.g. 17,17,17")
		gsN    = flag.Int("gs", 0, "Gray-Scott grid extent override")
		steps  = flag.Int("steps", 0, "timestep count override")
		seed   = flag.Int64("seed", 0, "seed override")
		csvDir = flag.String("csv", "", "also write each table as CSV under this directory")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-14s %s\n", id, experiments.Registry()[id].Paper)
		}
		return
	}

	p := experiments.Default()
	if *quick {
		p = experiments.Quick()
	}
	if *dims != "" {
		var d []int
		for _, s := range strings.Split(*dims, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: bad dims %q\n", *dims)
				os.Exit(2)
			}
			d = append(d, v)
		}
		p.WarpXDims = d
	}
	if *gsN > 0 {
		p.GrayScottN = *gsN
	}
	if *steps > 0 {
		p.Steps = *steps
	}
	if *seed != 0 {
		p.Seed = *seed
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		tables, err := experiments.Run(id, p)
		if err != nil {
			fail(err)
		}
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fail(err)
			}
		}
		if *csvDir != "" {
			paths, err := experiments.WriteCSVFiles(tables, *csvDir)
			if err != nil {
				fail(err)
			}
			for _, path := range paths {
				fmt.Printf("wrote %s\n", path)
			}
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
