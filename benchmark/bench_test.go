package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(vals, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", vals, tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(vals, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", vals)
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median of an even count = %g, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
}

// A tail percentile needs ten samples beyond it: p90 needs a hundred.
func TestSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{{100, 0.9, 10}, {99, 0.9, 9}, {20, 0.9, 2}, {142, 0.9, 14}, {20, 0.5, 10}, {19, 0.5, 9}} {
		if got := samplesBeyond(tc.n, tc.p); got != tc.want {
			t.Errorf("samplesBeyond(%d, %g) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSubWindows(t *testing.T) {
	s := time.Second
	ivs := []interval{
		{start: 0, end: 1 * s, work: 10},     // wholly in sub-window 0
		{start: 2 * s, end: 4 * s, work: 10}, // half in 0, half in 1; ends in 1
		{start: 4 * s, end: 6 * s, work: 10}, // wholly in 1 (ends on the boundary of 2)
		{start: 8 * s, end: 10 * s, work: 10},
		{start: 8 * s, end: 12 * s, work: 10}, // runs past the window's end
	}
	p50, rate, ops := subWindows(ivs, 9*s, 3)
	// Latencies by the sub-window the op ended in: {1s}, {2s}, {2s, 2s, 4s}.
	if want := []float64{1000, 2000, 2000}; !reflect.DeepEqual(p50, want) {
		t.Errorf("sub-window medians = %v, want %v", p50, want)
	}
	// Work inside each 3 s sub-window: 10+5, 5+10, then 5 of the fourth op
	// and 2.5 of the fifth (1 s of each lies inside [6 s, 9 s)).
	for j, want := range []float64{15. / 3, 15. / 3, 7.5 / 3} {
		if math.Abs(rate[j]-want) > 1e-9 {
			t.Errorf("rate[%d] = %g, want %g", j, rate[j], want)
		}
	}
	// Ops count the last sub-window to the ops' own ends.
	for j, want := range []float64{1.5, 1.5, 2} {
		if math.Abs(ops[j]-want) > 1e-9 {
			t.Errorf("ops[%d] = %g, want %g", j, ops[j], want)
		}
	}
	if got := median(p50); got != 2000 {
		t.Errorf("median of sub-window medians = %g, want 2000", got)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	draw := func(seed int64, client int) []request {
		w := newWalker(seed, client)
		var out []request
		for i := 0; i < 90; i++ {
			out = append(out, w.next())
		}
		return out
	}
	a := draw(1, 0)
	if !reflect.DeepEqual(a, draw(1, 0)) {
		t.Error("same seed, different schedule")
	}
	if reflect.DeepEqual(a, draw(2, 0)) {
		t.Error("different seed, same schedule")
	}
	if reflect.DeepEqual(a, draw(1, 1)) {
		t.Error("both clients follow one schedule")
	}
	// Every walk tightens 1e-2 → 1e-4 → 1e-6 on one field, and every three
	// walks cover every field.
	for i := 0; i < len(a); i += 9 {
		seen := map[string]bool{}
		for w := i; w < i+9; w += 3 {
			for s, rel := range rels {
				if a[w+s].rel != rel || a[w+s].field != a[w].field {
					t.Fatalf("walk at %d is %v", w, a[w:w+3])
				}
			}
			seen[a[w].field] = true
		}
		if len(seen) != len(refineFields) {
			t.Fatalf("walks %d..%d visit %v", i, i+9, seen)
		}
	}
	if reflect.DeepEqual(compressOrder(1), compressOrder(2)) && reflect.DeepEqual(compressOrder(1), compressOrder(3)) {
		t.Error("compress cycle ignores the seed")
	}
	if !reflect.DeepEqual(compressOrder(5), compressOrder(5)) {
		t.Error("same seed, different compress cycle")
	}
}

func TestSnapshotDeltaToleratesAbsentNames(t *testing.T) {
	before, err := parseSnapshot([]byte(`{"counters":{"serve.refines":4,"shard.node_reads.a":10},
		"gauges":{"runtime.gc_pause_total_seconds":0.5},
		"histograms":{"servecache.fetch_seconds.hit":{"count":100,"sum":0.25,"bounds":[1],"counts":[100,0]}}}`))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseSnapshot([]byte(`{"counters":{"serve.refines":10,"shard.node_reads.a":40,"shard.node_reads.b":20},
		"gauges":{"runtime.gc_pause_total_seconds":0.75},
		"histograms":{"servecache.fetch_seconds.hit":{"count":300,"sum":0.75}}}`))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"serve.refines":                      6,
		"runtime.gc_pause_total_seconds":     0.25,
		"servecache.fetch_seconds.hit.sum":   0.5,
		"servecache.fetch_seconds.hit.count": 200,
		"shard.node_reads.b":                 20, // new since the first scrape: started at zero
	} {
		if got, ok := delta(before, after, name); !ok || math.Abs(got-want) > 1e-12 {
			t.Errorf("delta(%s) = %g, %v; want %g", name, got, ok, want)
		}
	}
	if _, ok := delta(before, after, "servecache.evictions"); ok {
		t.Error("a name the program does not export must read as absent")
	}
	total, each := deltaPrefix(before, after, "shard.node_reads.")
	if total != 50 || len(each) != 2 {
		t.Errorf("deltaPrefix = %g over %v, want 50 over two nodes", total, each)
	}
	if _, err := parseSnapshot([]byte("not json")); err == nil {
		t.Error("garbage parsed as a snapshot")
	}
	// An empty snapshot (a scrape that failed) makes every name absent.
	if _, ok := delta(snapshot{}, snapshot{}, "serve.refines"); ok {
		t.Error("empty snapshots must yield absent")
	}
}

// A window in which every op failed has no median and no rate. The run must
// still end in a result line that says so, with the metrics absent.
func TestAllOpsFailedStillReports(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	ct, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{workload: "refine-warm", seed: 1, seconds: 1, n: 17, root: root, outDir: t.TempDir()}
	b := &bench{cfg: cfg}
	w := window{length: time.Second, ops: []op{
		{key: "Bx@1e-2", iv: interval{start: 0, end: time.Millisecond}, fail: "status 503"},
		{key: "Bx@1e-4", iv: interval{start: time.Millisecond, end: 2 * time.Millisecond}, fail: "status 503"},
	}}
	res := newResult()
	b.summarize(w, res)
	res.set("io_frac", math.NaN())
	if res.attempted != 2 || res.failed != 2 || len(res.violations) != 2 {
		t.Errorf("attempted %d, failed %d, violations %v; want 2, 2 and both ops named", res.attempted, res.failed, res.violations)
	}
	for _, name := range []string{"op_p50_ms", "op_p90_ms", "cpu_ms_per_op", "io_frac"} {
		if v, ok := res.metrics[name]; ok {
			t.Errorf("%s = %g from no successful op, want absent", name, v)
		}
	}
	if err := report(cfg, ct, res); err != nil {
		t.Fatalf("report of a fully failed run: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(cfg.outDir, "result-refine-warm-trace0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var saved struct{ Result resultLine }
	if err := json.Unmarshal(data, &saved); err != nil {
		t.Fatal(err)
	}
	if got := saved.Result; got.Correct || got.Attempted != 2 || got.Failed != 2 || len(got.Metrics) != len(ct.EndToEnd) {
		t.Errorf("result line %+v, want correct=false, 2 attempted, 2 failed, every end-to-end name", got)
	}
	// A name BENCHMARK.json does not list means the contract has drifted.
	res.set("no.such_metric", 1)
	if err := report(cfg, ct, res); err == nil {
		t.Error("report accepted a metric that BENCHMARK.json does not list")
	}
}

// One 17³ pass of every workload with a one-second window: every op
// verifies, the replay reproduces the programs' outputs, and each kind of
// run yields its metrics.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real binaries; skipped under -short")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	// Scratch lives outside the repository: a sibling package's test walks
	// the tree while this one runs.
	ct, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{seed: 1, seconds: 1, n: 17, root: root, outDir: t.TempDir()}
	runOnce := func(workload string, trace bool) *result {
		t.Helper()
		c := cfg
		c.workload, c.trace = workload, trace
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		res, err := run(ctx, c)
		if err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		if res.attempted == 0 || res.failed != 0 || len(res.violations) != 0 {
			t.Fatalf("%s: %d attempted, %d failed, violations %v", workload, res.attempted, res.failed, res.violations)
		}
		if err := report(c, ct, res); err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		return res
	}
	for _, w := range ct.workloadNames() {
		res := runOnce(w, true)
		if got := res.metrics["replay.fidelity"]; got != 1 {
			t.Errorf("%s: replay.fidelity = %g, want 1", w, got)
		}
		want := []string{"replay.refine_ms", "codec.new_zero_ms", "serve.inner_ms", "servecache.hit_ratio", "core.planes_fetched_per_refine"}
		if w == "compress" {
			want = []string{"replay.compress_ms", "bitplane.encode_ms", "lossless.ratio", "bitplane.errmatrix_task_ms", "proc.minor_faults_per_op"}
		}
		if w == "refine-routed" {
			// At 17³ the router's cache holds every plane, so the window
			// itself makes no round trip; the bare /planes probe still does.
			want = append(want, "shard.plane_rtt_ms", "shard.plane_mb_per_s")
		}
		for _, name := range want {
			if res.metrics[name] <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w, name, res.metrics[name])
			}
		}
		if _, ok := res.metrics["shard.round_trips_per_refine"]; ok != (w == "refine-routed") {
			t.Errorf("%s: shard.round_trips_per_refine present = %v", w, ok)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w+".json")); err != nil {
			t.Errorf("%s: spans not written: %v", w, err)
		}
	}
	res := runOnce("refine-warm", false)
	for _, d := range ct.EndToEnd {
		if res.metrics[d.Name] <= 0 {
			t.Errorf("untraced refine-warm: %s = %g, want > 0", d.Name, res.metrics[d.Name])
		}
	}
	left, _ := filepath.Glob(filepath.Join(cfg.outDir, "run-*"))
	if len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
}
