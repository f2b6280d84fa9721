// Command benchmark measures the two paths users pay for — a tolerance
// arriving at serve's /refine (warm cache, cold cache, and through the shard
// router) and a raw field entering `mgard compress` — at 129³, end to end
// against the real binaries and, in a separate traced run, layer by layer.
// README.md in this directory defines every workload and metric.
//
// Usage (from the repository root):
//
//	go run ./benchmark                      every workload, untraced then traced
//	go run ./benchmark -workload refine-cold -seed 3 -seconds 12 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract is the part of BENCHMARK.json the program reads: it is the one
// place the workload and metric names and the units are written down.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var ct contract
	if err := json.Unmarshal(data, &ct); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &ct, nil
}

func (ct *contract) workloadNames() []string {
	var names []string
	for _, w := range ct.Workloads {
		names = append(names, w.Name)
	}
	return names
}

func main() {
	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	ct, err := loadContract(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	workloads := ct.workloadNames()
	// Every recorded number is at 129³; only the package's test runs smaller.
	cfg := config{n: 129, root: root, outDir: filepath.Join(root, "benchmark", "out")}
	trace := 0
	flag.StringVar(&cfg.workload, "workload", "all", "one of "+strings.Join(workloads, ", ")+", or all (each untraced, then traced)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request order only; the field data is fixed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	flag.Parse()
	cfg.trace = trace != 0

	// SIGINT/SIGTERM, like the 170 s cap, cancel the context every child
	// process hangs on, so the run ends with nothing left behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	runs := []config{cfg}
	if cfg.workload == "all" {
		runs = nil
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				c := cfg
				c.workload, c.trace = w, traced
				runs = append(runs, c)
			}
		}
	} else if !slices.Contains(workloads, cfg.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	for _, c := range runs {
		runCtx, cancel := context.WithTimeout(ctx, 170*time.Second)
		res, err := run(runCtx, c)
		cancel()
		if err == nil {
			err = report(c, ct, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", c.workload, err)
			os.Exit(1)
		}
	}
}

// runRecord is the header of every output: enough to regenerate the run and
// to judge what its numbers can carry.
type runRecord struct {
	Workload   string  `json:"workload"`
	Traced     bool    `json:"traced"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Dims       []int   `json:"dims"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Command    string  `json:"command"`
	// SingleCore marks field_mb_per_s and cpu_ms_per_op as hypotheses: with
	// fewer than two CPUs the clients and the server share one core.
	SingleCore bool `json:"single_core_hypothesis"`
}

func newRunRecord(c config) runRecord {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return runRecord{
		Workload: c.workload, Traced: c.trace, Seed: c.seed, Seconds: c.seconds,
		Dims: []int{c.n, c.n, c.n}, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Command: strings.Join(os.Args, " "),
		SingleCore: runtime.NumCPU() < 2,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the run record, every metric of the run's kind by name with
// its unit (and, per layer, its source), the violations, and the result
// line; it also leaves record and result in outDir. A measured name that
// BENCHMARK.json does not list is an error: the contract has drifted.
func report(c config, ct *contract, res *result) error {
	rec := newRunRecord(c)
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("run %s\n", recJSON)
	if rec.SingleCore {
		fmt.Println("note: fewer than 2 CPUs — field_mb_per_s and cpu_ms_per_op are single-core hypotheses")
	}
	known := map[string]bool{}
	for _, d := range slices.Concat(ct.EndToEnd, ct.PerLayer) {
		known[d.Name] = true
	}
	for name := range res.metrics {
		if !known[name] {
			return fmt.Errorf("metric %s is not in BENCHMARK.json", name)
		}
	}
	defs := ct.EndToEnd
	if c.trace {
		defs = ct.PerLayer
	}
	line := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if ok {
			fmt.Printf("  %-38s %14.4f %-6s %s\n", d.Name, v, d.Unit, res.srcs[d.Name])
		} else {
			fmt.Printf("  %-38s %14s %-6s\n", d.Name, "absent", d.Unit)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if n := int(res.metrics["bench.samples"]); c.trace && samplesBeyond(n, 0.9) < 10 {
		fmt.Printf("note: %d samples leave %d beyond p90 (< 10): op_p90_ms is unresolved\n", n, samplesBeyond(n, 0.9))
	}
	for _, v := range res.violations {
		fmt.Println("violation:", v)
	}
	line.Correct = res.failed == 0 && len(res.violations) == 0 && res.attempted > 0
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	saved, err := json.Marshal(map[string]any{"run": rec, "result": line, "violations": res.violations})
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-trace0.json", c.workload)
	if c.trace {
		name = fmt.Sprintf("result-%s-trace1.json", c.workload)
	}
	if err := os.WriteFile(filepath.Join(c.outDir, name), saved, 0o644); err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
