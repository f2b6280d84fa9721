// Command obscheck validates a metrics snapshot written by -metrics-out:
// it checks the file parses and that every required metric name is present
// in one of the three instrument kinds. CI uses it to fail the build when
// instrumentation regresses out of the pipeline.
//
// Usage:
//
//	obscheck -in metrics.json -require core.session.bytes_fetched,storage.retry.reads
//	obscheck -in metrics.json -nonzero servecache.hits
//	obscheck -in metrics.prom -format prom -require serve.refine_seconds
//
// -require checks presence; -nonzero additionally checks the named
// counters are present and moved above zero (the CI serve smoke uses it to
// prove the shared cache actually served hits). Exits 0 when every check
// passes, 1 otherwise (listing the failures on stderr), 2 on usage or
// parse errors.
//
// -format prom validates a Prometheus text exposition instead (the
// /metrics?format=prom output): the line grammar, histogram bucket
// monotonicity and +Inf/_count agreement are checked, and -require /
// -nonzero names are matched after the registry's dot-to-underscore
// sanitization, so the same dotted names work in both modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pmgard/internal/obs"
)

func main() {
	in := flag.String("in", "", "metrics snapshot JSON file to validate")
	format := flag.String("format", "json", "snapshot format: json (registry snapshot) or prom (Prometheus text exposition)")
	require := flag.String("require", "", "comma-separated metric names that must be present")
	nonzero := flag.String("nonzero", "", "comma-separated counter names that must be present and > 0")
	list := flag.Bool("list", false, "print every metric name in the snapshot")
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "obscheck: -in is required")
		os.Exit(2)
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "obscheck:", err)
		os.Exit(2)
	}
	switch *format {
	case "json":
	case "prom":
		os.Exit(runProm(*in, string(data), *require, *nonzero, *list))
	default:
		fmt.Fprintf(os.Stderr, "obscheck: unknown -format %q (want json or prom)\n", *format)
		os.Exit(2)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", *in, err)
		os.Exit(2)
	}
	if *list {
		for name := range snap.Counters {
			fmt.Printf("counter   %s\n", name)
		}
		for name := range snap.Gauges {
			fmt.Printf("gauge     %s\n", name)
		}
		for name := range snap.Histograms {
			fmt.Printf("histogram %s\n", name)
		}
	}
	var missing []string
	for _, name := range strings.Split(*require, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !snap.Has(name) {
			missing = append(missing, name)
		}
	}
	for _, name := range strings.Split(*nonzero, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if v, ok := snap.Counters[name]; !ok || v <= 0 {
			missing = append(missing, fmt.Sprintf("%s (counter, must be > 0; have %d)", name, v))
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "obscheck: %s is missing %d required metrics:\n", *in, len(missing))
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		os.Exit(1)
	}
	fmt.Printf("obscheck: %s ok (%d counters, %d gauges, %d histograms)\n",
		*in, len(snap.Counters), len(snap.Gauges), len(snap.Histograms))
}

// runProm validates a Prometheus text exposition and returns the process
// exit code. Required names are matched after obs.PromName sanitization, so
// the caller can pass the same dotted registry names as in json mode.
func runProm(path, data, require, nonzero string, list bool) int {
	doc, err := parsePromText(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %s: %v\n", path, err)
		return 2
	}
	if list {
		for _, name := range doc.names() {
			fmt.Printf("%-9s %s\n", doc.types[name], name)
		}
	}
	var missing []string
	for _, name := range splitNames(require) {
		if !doc.has(obs.PromName(name)) {
			missing = append(missing, name)
		}
	}
	for _, name := range splitNames(nonzero) {
		pn := obs.PromName(name)
		if v, ok := doc.values[pn]; !ok || doc.types[pn] != "counter" || v <= 0 {
			missing = append(missing, fmt.Sprintf("%s (counter, must be > 0; have %g)", name, v))
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "obscheck: %s is missing %d required metrics:\n", path, len(missing))
		for _, name := range missing {
			fmt.Fprintf(os.Stderr, "  %s\n", name)
		}
		return 1
	}
	fmt.Printf("obscheck: %s ok (%d metrics, %d histograms)\n", path, len(doc.types), len(doc.histBuckets))
	return 0
}

// splitNames splits a comma-separated flag value, dropping empties.
func splitNames(s string) []string {
	var out []string
	for _, name := range strings.Split(s, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}
