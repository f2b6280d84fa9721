// Command compare pits the progressive pipeline against the one-shot
// SZ-style and ZFP-style baselines on a field file: per-bound archive sizes,
// progressive retrieval bytes, achieved errors, and the total storage cost
// of serving every bound (the paper's §I motivation).
//
// With -probe it instead compares the registered progressive-codec backends
// against each other on each input field — the quick probe cmd/serve uses
// to pick a backend per field — and -bench-out records the comparison as a
// BENCH_codec.json document.
//
// Usage:
//
//	compare -in field.field [-bounds 1e-6,1e-4,1e-2]
//	compare -probe -in a.field,b.field [-bounds ...] [-bench-out BENCH_codec.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"pmgard/internal/codec"
	"pmgard/internal/core"
	"pmgard/internal/experiments"
	"pmgard/internal/fieldio"
)

func main() {
	var (
		in        = flag.String("in", "", "input field file(s), comma-separated in probe mode")
		boundsArg = flag.String("bounds", "1e-8,1e-6,1e-4,1e-2,1e-1", "comma-separated relative error bounds")
		probe     = flag.Bool("probe", false, "compare progressive-codec backends per field instead of one-shot baselines")
		benchOut  = flag.String("bench-out", "", "write the probe comparison as JSON to this path (probe mode)")
	)
	flag.Parse()
	var err error
	if *probe {
		err = runProbe(*in, *boundsArg, *benchOut, os.Stdout)
	} else {
		err = run(*in, *boundsArg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

// benchDoc is the BENCH_codec.json document shape: the probed bounds plus
// one backend comparison per field.
type benchDoc struct {
	// Bounds are the relative error bounds every probe swept.
	Bounds []float64 `json:"bounds"`
	// Backends are the codec IDs compared.
	Backends []string `json:"backends"`
	// Fields holds one probe comparison per input field.
	Fields []core.ProbeComparison `json:"fields"`
}

// parseBounds parses a comma-separated positive float list.
func parseBounds(boundsArg string) ([]float64, error) {
	var bounds []float64
	for _, s := range strings.Split(boundsArg, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad bound %q", s)
		}
		bounds = append(bounds, v)
	}
	return bounds, nil
}

// runProbe compares the registered backends on every input field and
// optionally records the result document.
func runProbe(in, boundsArg, benchOut string, w io.Writer) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	bounds, err := parseBounds(boundsArg)
	if err != nil {
		return err
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(bounds)))
	doc := benchDoc{Bounds: bounds, Backends: codec.IDs()}
	for _, path := range strings.Split(in, ",") {
		meta, field, err := fieldio.Read(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		cmp, err := core.ProbeBackends(field, core.DefaultConfig(), meta.Field, bounds, nil)
		if err != nil {
			return err
		}
		doc.Fields = append(doc.Fields, *cmp)
		fmt.Fprintf(w, "field %s (dims %v): winner %s\n", meta.Field, field.Dims(), cmp.Winner)
		for _, r := range cmp.Results {
			fmt.Fprintf(w, "  %-8s stored %7d B, retrieval score %8d B", r.Backend, r.StoredBytes, r.Score)
			if r.Backend == cmp.Winner {
				fmt.Fprint(w, "  <- selected")
			}
			fmt.Fprintln(w)
		}
	}
	if benchOut != "" {
		blob, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(benchOut, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", benchOut)
	}
	return nil
}

func run(in, boundsArg string) error {
	if in == "" {
		return fmt.Errorf("-in is required")
	}
	meta, field, err := fieldio.Read(in)
	if err != nil {
		return err
	}
	bounds, err := parseBounds(boundsArg)
	if err != nil {
		return err
	}
	c, err := core.Compress(field, core.DefaultConfig(), meta.Field, meta.Timestep)
	if err != nil {
		return err
	}
	h := &c.Header
	fmt.Printf("field %s (dims %v): raw %d bytes, progressive store %d bytes\n\n",
		meta.Field, field.Dims(), 8*field.Len(), h.TotalBytes())
	fmt.Println("rel_bound   sz_bytes  zfp_bytes  prog_bytes     sz_err    zfp_err   prog_err")
	rows, err := experiments.CompareBaselines(field, c, bounds)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return fmt.Errorf("field has zero range; relative bounds are meaningless")
	}
	var szTotal, zfpTotal int64
	for _, r := range rows {
		szTotal += int64(r.SZBytes)
		zfpTotal += int64(r.ZFPBytes)
		fmt.Printf("%9.0e %10d %10d %11d %10.2e %10.2e %10.2e\n",
			r.RelBound, r.SZBytes, r.ZFPBytes, r.ProgBytes, r.SZErr, r.ZFPErr, r.ProgErr)
	}
	fmt.Printf("\nstorage to serve all %d bounds: sz %d, zfp %d, progressive %d (stored once)\n",
		len(bounds), szTotal, zfpTotal, h.TotalBytes())
	return nil
}
