package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// n is the grid extent per axis: 129, except in the package's test.
	n int
	// root is the module root the programs are built from; outDir receives results, the span file, and this run's scratch.
	root, outDir string
}

// result is what one run measured.
type result struct {
	attempted, failed int
	// violations lists failed ops and failed checks by name.
	violations []string
	// metrics holds every measured metric by name. A per-layer name that
	// does not apply to the workload, or that the program no longer exports,
	// is simply missing: the report prints it as absent, with value 0.
	metrics map[string]float64
	// src is how the metrics set from here on are obtained — R = layer
	// replay, S = the program's own metrics, P = probe of the live processes,
	// "-" = the harness itself — and srcs keeps it per metric for the report.
	src  string
	srcs map[string]string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, src: "-", srcs: map[string]string{}}
}

// set records v unless it is not a number: a window in which every op failed
// has no median, and its metrics read as absent.
func (r *result) set(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.metrics[name], r.srcs[name] = v, r.src
	}
}

// from names the source of the metrics set next.
func (r *result) from(src string) *result {
	r.src = src
	return r
}

// setIf records v unless the source lacked it.
func (r *result) setIf(name string, v float64, ok bool) {
	if ok {
		r.set(name, v)
	}
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// run executes one workload once: build, generate data, set up, measure,
// verify, and in the traced run probe and replay the layers.
func run(ctx context.Context, cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Every child dies with ctx, whichever way run returns.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	b := &bench{ctx: ctx, cfg: cfg, bin: filepath.Join(cfg.outDir, "bin"), dir: dir, arts: map[string]*artifact{}}
	defer b.closeArtifacts()
	if cfg.trace {
		b.tr = newTracer()
	}
	res := newResult()

	start := time.Now()
	if err := buildPrograms(ctx, cfg.root, b.bin); err != nil {
		return nil, err
	}
	res.set("bench.build_s", time.Since(start).Seconds())

	fields := refineFields
	if cfg.workload == "compress" {
		fields = compressFields
	}
	start = time.Now()
	if err := b.gendata(fields); err != nil {
		return nil, err
	}
	res.set("bench.gendata_s", time.Since(start).Seconds())

	if cfg.workload == "compress" {
		err = b.runCompress(res)
	} else {
		err = b.runRefine(res)
	}
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if b.tr != nil {
		if err := b.tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// reps is how often the run sets up: the traced run reports no setup_s and
// sets up once.
func (b *bench) reps() int {
	if b.tr != nil {
		return 1
	}
	return setupReps
}

func (b *bench) rawFieldBytes() float64 { return 8 * math.Pow(float64(b.cfg.n), 3) }

func (b *bench) runRefine(res *result) error {
	var t *tier
	var setups []float64
	for rep := 0; rep < b.reps(); rep++ {
		if t != nil {
			t.stop()
		}
		start := time.Now()
		var err error
		if t, err = b.setupRefine(rep); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer t.stop()
	res.set("setup_s", median(setups))

	before := b.scrape(t.front)
	w := b.refineWindow(t)
	after := b.scrape(t.front)
	if err := t.exitedEarly(); err != nil {
		return err
	}
	if err := b.verifyRefine(&w, res); err != nil {
		return err
	}
	b.summarize(w, res)
	byKey := map[string]float64{}
	for _, o := range w.ops {
		if o.fail == "" {
			byKey[o.key] = float64(o.reply.BytesFetched)
		}
	}
	res.set("io_frac", sum(byKey)/(b.rawFieldBytes()*float64(len(byKey))))
	if b.tr == nil {
		return nil
	}

	b.serverLayers(res.from("S"), before, after)
	if err := b.probeRefine(t, res.from("P")); err != nil {
		return err
	}
	rss := 0.0
	for _, p := range t.procs {
		rss += p.peakRSSMB()
	}
	res.set("proc.peak_rss_mb", rss)
	t.stop()
	return b.replayRefine(&w, res.from("R"))
}

func (b *bench) runCompress(res *result) error {
	var setups []float64
	for rep := 0; rep < b.reps(); rep++ {
		// The warm-up pass compresses every field once; its artifacts are
		// the references the window's artifacts are compared with.
		start := time.Now()
		for _, f := range compressFields {
			if _, err := b.compressField(f, b.artifactPath(f)); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setups))

	w := b.compressWindow()
	refHash, err := b.verifyCompress(&w, res)
	if err != nil {
		return err
	}
	b.summarize(w, res)
	stored := 0.0
	for _, f := range compressFields {
		fi, err := os.Stat(b.artifactPath(f))
		if err != nil {
			return err
		}
		stored += float64(fi.Size())
	}
	res.set("io_frac", stored/(b.rawFieldBytes()*float64(len(compressFields))))
	if b.tr == nil {
		return nil
	}

	var rss float64
	var faults []float64
	for _, o := range w.ops {
		rss = math.Max(rss, o.rssMB)
		faults = append(faults, o.faults)
	}
	res.from("P").set("proc.peak_rss_mb", rss)
	res.set("proc.minor_faults_per_op", median(faults))
	// One traced op: the program's own pool histograms for the error matrix.
	metricsPath := filepath.Join(b.dir, "compress-metrics.json")
	field := compressOrder(b.cfg.seed)[0]
	if _, err := b.compressField(field, filepath.Join(b.dir, "traced.pmgd"), "-metrics-out", metricsPath); err != nil {
		return err
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil {
		return err
	}
	snap, err := parseSnapshot(data)
	if err != nil {
		return err
	}
	taskSum, ok1 := snap.value("pool.bitplane.errmatrix.task_seconds.sum")
	taskCount, ok2 := snap.value("pool.bitplane.errmatrix.task_seconds.count")
	res.from("S").setIf("bitplane.errmatrix_task_ms", 1e3*taskSum/taskCount, ok1 && ok2)
	return b.replayCompressLayers(res.from("R"), refHash)
}

// summarize derives the timing and throughput end-to-end metrics from a
// verified window.
func (b *bench) summarize(w window, res *result) {
	var good []interval
	var lat []float64
	for _, o := range w.ops {
		res.attempted++
		if o.fail != "" {
			res.failed++
			res.violate("op %s failed: %s", o.key, o.fail)
			continue
		}
		good = append(good, o.iv)
		lat = append(lat, ms(o.iv.end-o.iv.start))
	}
	p50s, rates, ops := subWindows(good, w.length, subWindowCount)
	var cpu, sys []float64
	for j, c := range w.cpu {
		if ops[j] > 0 {
			cpu = append(cpu, ms(c.total())/ops[j])
			sys = append(sys, ms(c.sys)/ops[j])
		}
	}
	res.set("op_p50_ms", median(p50s))
	res.set("field_mb_per_s", median(rates)/1e6)
	res.set("cpu_ms_per_op", median(cpu))
	res.from("P").set("proc.sys_ms_per_op", median(sys))
	res.from("-").set("op_p90_ms", quantile(lat, 0.9))
	res.set("bench.samples", float64(len(lat)))
	res.set("bench.generator_cpu_frac", w.self.Seconds()/w.length.Seconds())
	res.set("bench.error_rate", float64(res.failed)/math.Max(1, float64(res.attempted)))
}

func sum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	return total
}

// verifyRefine checks every reply of the window, outside the timed
// intervals. Replies of one (field, rel) must agree with each other and
// must not be degraded; each distinct reply is then checked against the
// benchmark's own reconstruction of the returned planes: equal checksum,
// the header's tolerance for that rel, and an achieved L∞ error on the
// original field within it. A failed check fails every op of that key.
func (b *bench) verifyRefine(w *window, res *result) error {
	first := map[string]*op{}
	bad := map[string]string{}
	for i := range w.ops {
		o := &w.ops[i]
		if o.fail != "" {
			continue
		}
		if o.reply.Degraded {
			o.fail = "degraded reply"
			continue
		}
		ref := first[o.key]
		if ref == nil {
			first[o.key] = o
			continue
		}
		if !slices.Equal(o.reply.Planes, ref.reply.Planes) || o.reply.Checksum != ref.reply.Checksum ||
			o.reply.BytesFetched != ref.reply.BytesFetched || o.reply.Tolerance != ref.reply.Tolerance {
			o.fail = "reply differs from an earlier reply to the same request"
		}
	}
	keys := make([]string, 0, len(first))
	for key := range first {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		reply := first[key].reply
		field, relText, _ := strings.Cut(key, "@")
		a, err := b.artifact(field)
		if err != nil {
			return err
		}
		rel, _ := strconv.ParseFloat(relText, 64)
		if want := a.h.AbsTolerance(rel); math.Abs(reply.Tolerance-want) > 1e-12*want {
			bad[key] = fmt.Sprintf("tolerance %g, header gives %g", reply.Tolerance, want)
			continue
		}
		rec, err := a.reconstruct(nil, reply.Planes, true)
		if err != nil {
			bad[key] = "planes not reconstructible: " + err.Error()
			continue
		}
		if got := checksum(rec); got != reply.Checksum {
			bad[key] = fmt.Sprintf("checksum %s, reconstruction of planes %v gives %s", reply.Checksum, reply.Planes, got)
		} else if e := a.maxError(rec); e > reply.Tolerance {
			bad[key] = fmt.Sprintf("achieved error %g above tolerance %g", e, reply.Tolerance)
		}
	}
	for i := range w.ops {
		if o := &w.ops[i]; o.fail == "" && bad[o.key] != "" {
			o.fail = bad[o.key]
		}
	}
	return nil
}

// verifyCompress checks the window's artifacts, outside the timed
// intervals: each field's reference artifact (from the warm-up pass) must
// round-trip at rel 1e-6 within tolerance, and every artifact of the window
// must be byte-identical to its field's reference. It returns the reference
// hashes and removes the window's artifacts.
func (b *bench) verifyCompress(w *window, res *result) (map[string]string, error) {
	refHash := map[string]string{}
	for _, f := range compressFields {
		a, err := b.artifact(f)
		if err != nil {
			return nil, err
		}
		if refHash[f], err = fileSHA256(b.artifactPath(f)); err != nil {
			return nil, err
		}
		plan, err := a.plan(nil, 1e-6)
		if err != nil {
			return nil, err
		}
		rec, err := a.reconstruct(nil, plan.Planes, false)
		if err != nil {
			return nil, err
		}
		if e, tol := a.maxError(rec), a.h.AbsTolerance(1e-6); e > tol {
			res.violate("artifact of %s: round trip at rel 1e-6 has error %g above tolerance %g", f, e, tol)
			refHash[f] = "" // every op of the field fails below
		}
	}
	for i := range w.ops {
		o := &w.ops[i]
		if o.fail == "" {
			got, err := fileSHA256(o.out)
			if err != nil {
				o.fail = "artifact unreadable: " + err.Error()
			} else if got != refHash[o.key] {
				o.fail = "artifact differs from the field's verified reference"
			}
		}
		os.Remove(o.out)
	}
	return refHash, nil
}

// scrape reads a server's /metrics JSON in the traced run. A scrape that
// fails yields the empty snapshot, from which every name reads as absent.
func (b *bench) scrape(base string) snapshot {
	if b.tr == nil {
		return snapshot{}
	}
	status, body, err := httpGet(b.ctx, http.DefaultClient, base+"/metrics")
	if err != nil || status != http.StatusOK {
		return snapshot{}
	}
	s, _ := parseSnapshot(body)
	return s
}

// serverLayers derives the source-S metrics from the front server's
// /metrics deltas across the measured window.
func (b *bench) serverLayers(res *result, before, after snapshot) {
	d := func(name string) (float64, bool) { return delta(before, after, name) }
	refines, _ := d("serve.refines")
	hits, ok1 := d("servecache.hits")
	misses, ok2 := d("servecache.misses")
	res.setIf("servecache.hit_ratio", hits/(hits+misses), ok1 && ok2)
	perRefine := func(metric, name string, scale float64) {
		v, have := d(name)
		res.setIf(metric, scale*v/refines, have)
	}
	perRefine("servecache.evictions_per_refine", "servecache.evictions", 1)
	perRefine("servecache.coalesced_per_refine", "servecache.coalesced", 1)
	perRefine("servecache.miss_fetch_ms_per_refine", "servecache.fetch_seconds.miss.sum", 1e3)
	perRefine("core.planes_fetched_per_refine", "core.session.planes_fetched", 1)
	perRefine("runtime.gc_pause_ms_per_op", "runtime.gc_pause_total_seconds", 1e3)
	hitSum, ok1 := d("servecache.fetch_seconds.hit.sum")
	hitCount, ok2 := d("servecache.fetch_seconds.hit.count")
	res.setIf("servecache.hit_us", 1e6*hitSum/hitCount, ok1 && ok2 && hitCount > 0)

	routed := b.cfg.workload == "refine-routed"
	trips, each := deltaPrefix(before, after, "shard.node_reads.")
	res.setIf("shard.round_trips_per_refine", trips/refines, routed && len(each) > 0)
	lo, hi := math.Inf(1), 0.0
	for _, v := range each {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	res.setIf("shard.node_balance", lo/hi, routed && hi > 0)
	failovers, have := d("shard.replica_failover")
	res.setIf("shard.replica_failovers", failovers, routed && have)
}

// probeRefine is the source-P measurement: one client walks every
// (field, rel) probeReps times against the live tier. It splits latency
// into the server's own elapsed_seconds and everything outside it, gives
// the per-rel medians, and on the routed tier the router/node CPU split and
// the bare /planes round trip.
func (b *bench) probeRefine(t *tier, res *result) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	var inner, outside []float64
	perRel := map[string][]float64{}
	front, nodes := t.procs[:1], t.procs[1:]
	frontCPU, nodeCPU := cpuOf(front), cpuOf(nodes)
	last := map[string]refineReply{}
	ops := 0
	for rep := 0; rep < probeReps; rep++ {
		for _, f := range refineFields {
			for _, rel := range rels {
				start := time.Now()
				reply, err := b.refine(hc, t.front, request{f, rel})
				if err != nil {
					return fmt.Errorf("probe %s@%s: %w", f, rel, err)
				}
				total := ms(time.Since(start))
				inner = append(inner, 1e3*reply.ElapsedSeconds)
				outside = append(outside, total-1e3*reply.ElapsedSeconds)
				perRel[rel] = append(perRel[rel], total)
				last[f] = reply
				ops++
			}
		}
	}
	res.set("serve.inner_ms", median(inner))
	res.set("serve.outside_ms", median(outside))
	for _, rel := range rels {
		res.set("serve.p50_ms.rel"+rel, median(perRel[rel]))
	}
	if len(nodes) == 0 {
		return nil
	}
	res.set("shard.router_cpu_ms_per_op", ms(cpuOf(front).sub(frontCPU).total())/float64(ops))
	res.set("shard.node_cpu_ms_per_op", ms(cpuOf(nodes).sub(nodeCPU).total())/float64(ops))

	// Seeded planes among those the tightest refine of each field fetched,
	// each requested once untimed so the node serves the timed one from its
	// cache.
	rng := rand.New(rand.NewSource(b.cfg.seed))
	var rtts []float64
	var bytes, seconds float64
	for i := 0; i < planeProbes; i++ {
		f := refineFields[rng.Intn(len(refineFields))]
		planes := last[f].Planes
		level := rng.Intn(len(planes))
		if planes[level] == 0 {
			continue
		}
		url := fmt.Sprintf("%s/planes?field=%s&level=%d&plane=%d", t.nodes[0], f, level, rng.Intn(planes[level]))
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			status, body, err := httpGet(b.ctx, hc, url)
			if err != nil || status != 200 {
				return fmt.Errorf("plane probe %s: status %d, %v", url, status, err)
			}
			if pass == 1 {
				d := time.Since(start)
				rtts = append(rtts, ms(d))
				bytes += float64(len(body))
				seconds += d.Seconds()
			}
		}
	}
	res.setIf("shard.plane_rtt_ms", median(rtts), len(rtts) > 0)
	res.setIf("shard.plane_mb_per_s", bytes/1e6/seconds, seconds > 0)
	return nil
}

// stageStats collects, per replayed key, each stage's median over the
// repetitions; a stage's metric is the mean of those medians over keys.
type stageStats map[string][]float64

// add folds one key's repetitions in: reps[i] is repetition i's stage times.
func (s stageStats) add(reps []map[string]time.Duration, stages []string) {
	for _, st := range stages {
		var vals []float64
		for _, r := range reps {
			vals = append(vals, ms(r[st]))
		}
		s[st] = append(s[st], median(vals))
	}
}

func (s stageStats) ms(stage string) float64 { return mean(s[stage]) }

// total is the sum of the stage metrics: the replayed op's CPU time, since
// every stage ran on one worker.
func (s stageStats) total(stages []string) float64 {
	total := 0.0
	for _, st := range stages {
		total += s.ms(st)
	}
	return total
}

// rate is MB/s of work done at a stage's mean time.
func rate(bytes, millis float64) float64 { return bytes / 1e6 / (millis / 1e3) }

var refineStages = []string{stPlan, stNewZero, stRead, stInflate, stDecode, stRecompose, stChecksum}

// replayRefine is the source-R measurement of the read path: every
// (field, rel) the window saw, replayReps times, stage by stage. The cold
// workload's replay reads and inflates every plane like its server; the
// warm and routed ones take planes from memory. replay.fidelity is 1 only
// if every replay planned the planes the server returned and reproduced its
// checksum.
func (b *bench) replayRefine(w *window, res *result) error {
	served := map[string]refineReply{}
	for _, o := range w.ops {
		if o.fail == "" {
			served[o.key] = o.reply
		}
	}
	warm := b.cfg.workload != "refine-cold"
	stats := stageStats{}
	var planeCount, readBytes, planeBytes float64
	fidelity := 1.0
	keys := 0
	for _, f := range refineFields {
		a, err := b.artifact(f)
		if err != nil {
			return err
		}
		for _, relText := range rels {
			key := request{f, relText}.key()
			reply, ok := served[key]
			if !ok {
				continue
			}
			rel, _ := strconv.ParseFloat(relText, 64)
			var reps []map[string]time.Duration
			for rep := 0; rep < replayReps; rep++ {
				o := b.tr.beginOp(fmt.Sprintf("replay refine %s #%d", key, rep))
				plan, err := a.plan(o, rel)
				if err != nil {
					return err
				}
				rec, err := a.reconstruct(o, plan.Planes, warm)
				if err != nil {
					return err
				}
				var crc string
				o.time(stChecksum, func() { crc = checksum(rec) })
				o.finish()
				reps = append(reps, o.stages)
				if rep == 0 {
					if !slices.Equal(plan.Planes, reply.Planes) || crc != reply.Checksum {
						fidelity = 0
						res.violate("replay of %s: planes %v checksum %s, server gave %v %s", key, plan.Planes, crc, reply.Planes, reply.Checksum)
					}
					for _, n := range plan.Planes {
						planeCount += float64(n)
					}
					planeBytes += a.planeBytes(plan.Planes)
					readBytes += a.storedBytes(plan.Planes)
				}
			}
			stats.add(reps, refineStages)
			keys++
		}
	}
	if keys == 0 {
		res.violate("no successful refine to replay")
		return nil
	}
	n := float64(keys)
	res.set("retrieval.plan_ms", stats.ms(stPlan))
	res.set("retrieval.planes_per_refine", planeCount/n)
	res.set("codec.new_zero_ms", stats.ms(stNewZero))
	res.setIf("storage.read_ms", stats.ms(stRead), !warm)
	res.setIf("storage.read_calls", planeCount/n, !warm)
	res.setIf("storage.read_mb", readBytes/n/1e6, !warm)
	res.setIf("lossless.inflate_ms", stats.ms(stInflate), !warm)
	res.setIf("lossless.inflate_mb_per_s", rate(planeBytes/n, stats.ms(stInflate)), !warm)
	res.set("bitplane.decode_ms", stats.ms(stDecode))
	res.set("bitplane.decode_mb_per_s", rate(planeBytes/n, stats.ms(stDecode)))
	res.set("decompose.recompose_ms", stats.ms(stRecompose))
	res.set("decompose.recompose_mb_per_s", rate(b.rawFieldBytes(), stats.ms(stRecompose)))
	res.set("serve.checksum_ms", stats.ms(stChecksum))
	total := stats.total(refineStages)
	res.set("replay.refine_ms", total)
	res.set("replay.refine_cpu_coverage", total/res.metrics["cpu_ms_per_op"])
	res.set("replay.fidelity", fidelity)
	return nil
}

var compressStages = []string{stFieldRead, stDecompose, stHeader, stPool, stEncode, stDeflate, stWrite}

// replayCompressLayers is the source-R measurement of the write path: every
// field of the cycle, replayReps times. replay.fidelity is 1 only if each
// replayed artifact is byte-identical to the one `mgard compress` wrote.
func (b *bench) replayCompressLayers(res *result, refHash map[string]string) error {
	stats := stageStats{}
	var planeIn, planeOut, stored float64
	fidelity := 1.0
	for _, f := range compressFields {
		out := filepath.Join(b.dir, "replay-"+f+".pmgd")
		var reps []map[string]time.Duration
		for rep := 0; rep < replayReps; rep++ {
			// A fresh `mgard compress` touches every page of its heap for the
			// first time. Returning the benchmark's free heap to the OS makes
			// each replayed stage pay those page faults too.
			debug.FreeOSMemory()
			o := b.tr.beginOp(fmt.Sprintf("replay compress %s #%d", f, rep))
			in, compressed, err := replayCompress(o, b.fieldPath(f), out)
			o.finish()
			if err != nil {
				return err
			}
			reps = append(reps, o.stages)
			if rep == 0 {
				planeIn, planeOut = planeIn+in, planeOut+compressed
				got, err := fileSHA256(out)
				if err != nil {
					return err
				}
				if got != refHash[f] {
					fidelity = 0
					res.violate("replay of compress %s: artifact differs from mgard compress's", f)
				}
				fi, err := os.Stat(out)
				if err != nil {
					return err
				}
				stored += float64(fi.Size())
			}
		}
		stats.add(reps, compressStages)
	}
	n := float64(len(compressFields))
	raw := b.rawFieldBytes()
	res.set("fieldio.read_ms", stats.ms(stFieldRead))
	res.set("fieldio.read_mb_per_s", rate(raw, stats.ms(stFieldRead)))
	res.set("decompose.decompose_ms", stats.ms(stDecompose))
	res.set("decompose.decompose_mb_per_s", rate(raw, stats.ms(stDecompose)))
	res.set("core.header_ms", stats.ms(stHeader))
	res.set("features.pool_ms", stats.ms(stPool))
	res.set("bitplane.encode_ms", stats.ms(stEncode))
	res.set("bitplane.encode_mb_per_s", rate(raw, stats.ms(stEncode)))
	res.set("lossless.deflate_ms", stats.ms(stDeflate))
	res.set("lossless.deflate_mb_per_s", rate(planeIn/n, stats.ms(stDeflate)))
	res.set("lossless.ratio", planeIn/planeOut)
	res.set("storage.write_ms", stats.ms(stWrite))
	res.set("storage.write_mb_per_s", rate(stored/n, stats.ms(stWrite)))
	total := stats.total(compressStages)
	res.set("replay.compress_ms", total)
	res.set("replay.compress_cpu_coverage", total/res.metrics["cpu_ms_per_op"])
	res.set("replay.fidelity", fidelity)
	return nil
}
