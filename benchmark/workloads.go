package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// clients is the closed-loop client count of the refine workloads: one
	// connection per CPU of the 2-vCPU reference host, fixed so that runs on
	// other hosts stay comparable.
	clients = 2
	// coldCacheBytes is below one request's plane set at 129³, so nearly
	// every plane is re-read, re-inflated and evicted.
	coldCacheBytes = 4 << 20
	// setupReps is how often the untraced run sets up; setup_s is the median.
	setupReps = 3
	// subWindowCount splits the measured window for the median-of-medians.
	subWindowCount = 3
	// probeReps and replayReps are the repetitions per (field, rel) of the
	// traced run's 1-client probe and layer replay.
	probeReps  = 3
	replayReps = 5
	// planeProbes is the number of seeded GET /planes of the routed probe.
	planeProbes = 200
	opTimeout   = 60 * time.Second
	// fieldSeed is the one seed every field is generated with. The run's
	// -seed draws the request order only: a data seed moves the fields'
	// compressibility, and with it io_frac and every timing, by ≈ ±12 %,
	// which would drown the regression bounds.
	fieldSeed = 7
)

var (
	refineFields   = []string{"Bx", "Ex", "Jx"}
	rels           = []string{"1e-2", "1e-4", "1e-6"}
	compressFields = []string{"Jx", "Du", "Ex", "Dv"}
	fieldApp       = map[string]string{"Bx": "warpx", "Ex": "warpx", "Jx": "warpx", "Du": "grayscott", "Dv": "grayscott"}
)

// request is one /refine call of the schedule.
type request struct{ field, rel string }

func (r request) key() string { return r.field + "@" + r.rel }

// walker is one client's seeded request schedule: walks that tighten
// rel 1e-2 → 1e-4 → 1e-6 on one field, the fields taken from a fresh seeded
// shuffle every len(refineFields) walks so the mix stays balanced within
// short windows.
type walker struct {
	rng   *rand.Rand
	order []string
	walk  int
	step  int
}

func newWalker(seed int64, client int) *walker {
	return &walker{
		rng:   rand.New(rand.NewSource(seed*7919 + int64(client))),
		order: append([]string(nil), refineFields...),
	}
}

func (w *walker) next() request {
	if w.step == 0 && w.walk%len(w.order) == 0 {
		w.rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })
	}
	r := request{field: w.order[w.walk%len(w.order)], rel: rels[w.step]}
	if w.step++; w.step == len(rels) {
		w.step = 0
		w.walk++
	}
	return r
}

// compressOrder is the field cycle of the compress workload, rotated by a
// seeded offset.
func compressOrder(seed int64) []string {
	off := rand.New(rand.NewSource(seed)).Intn(len(compressFields))
	return append(append([]string(nil), compressFields[off:]...), compressFields[:off]...)
}

// refineReply is the part of serve's /refine document the benchmark reads.
type refineReply struct {
	Field          string  `json:"field"`
	Tolerance      float64 `json:"tolerance"`
	Planes         []int   `json:"planes"`
	BytesFetched   int64   `json:"bytes_fetched"`
	Degraded       bool    `json:"degraded"`
	Checksum       string  `json:"checksum"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// op is one measured operation: a /refine request from send to last body
// byte, or an `mgard compress` from exec to exit.
type op struct {
	// key is "<field>@<rel>" for a refine, the field name for a compress.
	key string
	iv  interval
	// fail is empty for a successful, verified op, else why it failed.
	fail string

	reply refineReply // refine only

	cpu    cpuTime // compress only: the child's CPU time
	rssMB  float64 // compress only: the child's peak RSS
	faults float64 // compress only: the child's minor page faults
	out    string  // compress only: the artifact, hashed after the window
}

// window is one measured window.
type window struct {
	ops    []op
	length time.Duration
	// cpu is the CPU time of the program's processes in each sub-window, the
	// last one running until the window's last op ended.
	cpu [subWindowCount]cpuTime
	// self is the benchmark's own CPU time over the window.
	self time.Duration
}

// bench is one run of one workload.
type bench struct {
	ctx context.Context
	cfg config
	// bin holds the built programs, dir this run's scratch files.
	bin, dir string
	// tr is non-nil in the traced run.
	tr *tracer
	// arts are the artifacts opened for verification and replay, by field.
	arts map[string]*artifact
}

func (b *bench) fieldPath(name string) string {
	return filepath.Join(b.dir, fmt.Sprintf("%s_%s_t0000.field", fieldApp[name], name))
}

func (b *bench) artifactPath(name string) string { return filepath.Join(b.dir, name+".pmgd") }

func (b *bench) tool(name string) string { return filepath.Join(b.bin, name) }

// gendata generates the fields the workload reads, one gendata
// process per simulator, side by side.
func (b *bench) gendata(fields []string) error {
	byApp := map[string][]string{}
	for _, f := range fields {
		byApp[fieldApp[f]] = append(byApp[fieldApp[f]], f)
	}
	errs := make(chan error, len(byApp))
	for app, names := range byApp {
		go func() {
			_, err := runTool(b.ctx, b.tool("gendata"), "-app", app, "-out", b.dir, "-n", fmt.Sprint(b.cfg.n),
				"-steps", "1", "-fields", strings.Join(names, ","), "-seed", fmt.Sprint(fieldSeed))
			errs <- err
		}()
	}
	var first error
	for range byApp {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (b *bench) compressField(name, out string, extra ...string) (*os.ProcessState, error) {
	args := append([]string{"compress", "-in", b.fieldPath(name), "-out", out}, extra...)
	ctx, cancel := context.WithTimeout(b.ctx, opTimeout)
	defer cancel()
	return runTool(ctx, b.tool("mgard"), args...)
}

// artifact opens (once) the read side of a field's artifact.
func (b *bench) artifact(name string) (*artifact, error) {
	if a := b.arts[name]; a != nil {
		return a, nil
	}
	a, err := openArtifact(b.artifactPath(name), b.fieldPath(name))
	if err != nil {
		return nil, err
	}
	b.arts[name] = a
	return a, nil
}

func (b *bench) closeArtifacts() {
	for _, a := range b.arts {
		a.close()
	}
}

// tier is the serving processes of one refine workload.
type tier struct {
	// procs is every process, the one clients talk to first.
	procs []*proc
	front string
	// nodes are the shard nodes' base URLs (refine-routed only).
	nodes []string
}

func (t *tier) stop() {
	for _, p := range t.procs {
		p.stop()
	}
}

// cpuOf is the CPU time the processes have used so far.
func cpuOf(procs []*proc) cpuTime {
	var total cpuTime
	for _, p := range procs {
		c, _ := p.cpu() // a vanished process shows up as failed ops
		total = total.add(c)
	}
	return total
}

// exitedEarly names a server that is no longer running, with its log tail.
func (t *tier) exitedEarly() error {
	for _, p := range t.procs {
		if p.exited() {
			return fmt.Errorf("%s exited during the run:\n%s", p.name, p.tail())
		}
	}
	return nil
}

// setupRefine is what setup_s times: create the served artifacts, launch
// the workload's serving tier on ephemeral ports, wait for /readyz, and run
// the warm-up pass in which each client issues every (field, rel) once.
func (b *bench) setupRefine(rep int) (*tier, error) {
	var paths []string
	for _, f := range refineFields {
		if _, err := b.compressField(f, b.artifactPath(f)); err != nil {
			return nil, err
		}
		paths = append(paths, b.artifactPath(f))
	}
	in := strings.Join(paths, ",")
	t := &tier{}
	launch := func(name string, args ...string) (string, error) {
		args = append([]string{"-addr", "127.0.0.1:0"}, args...)
		p, err := startProc(b.ctx, b.dir, fmt.Sprintf("%s-%d", name, rep), b.tool("serve"), args...)
		if err != nil {
			return "", err
		}
		t.procs = append(t.procs, p)
		return p.awaitReady(b.ctx)
	}
	var err error
	switch b.cfg.workload {
	case "refine-warm":
		t.front, err = launch("serve", "-in", in)
	case "refine-cold":
		t.front, err = launch("serve", "-in", in, "-cache-bytes", fmt.Sprint(coldCacheBytes))
	case "refine-routed":
		type node struct {
			Name string `json:"name"`
			URL  string `json:"url"`
		}
		var shardMap struct {
			Nodes       []node `json:"nodes"`
			Replication int    `json:"replication"`
		}
		shardMap.Replication = 2
		for _, name := range []string{"node0", "node1"} {
			var url string
			if url, err = launch(name, "-role", "node", "-in", in); err != nil {
				break
			}
			t.nodes = append(t.nodes, url)
			shardMap.Nodes = append(shardMap.Nodes, node{Name: name, URL: url})
		}
		if err != nil {
			break
		}
		mapPath := filepath.Join(b.dir, "shard-map.json")
		data, _ := json.Marshal(shardMap)
		if err = os.WriteFile(mapPath, data, 0o644); err != nil {
			break
		}
		t.front, err = launch("router", "-role", "router", "-shard-map", mapPath, "-cache-bytes", fmt.Sprint(coldCacheBytes))
		// Clients talk to the router: it leads the process list.
		last := len(t.procs) - 1
		t.procs[0], t.procs[last] = t.procs[last], t.procs[0]
	default:
		err = fmt.Errorf("BENCHMARK.json names workload %q, which the program does not have", b.cfg.workload)
	}
	if err != nil {
		t.stop()
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			for _, f := range refineFields {
				for _, rel := range rels {
					if _, err := b.refine(hc, t.front, request{f, rel}); err != nil && errs[c] == nil {
						errs[c] = fmt.Errorf("warm-up %s@%s: %w", f, rel, err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.stop()
			return nil, err
		}
	}
	return t, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
}

func httpGet(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// refine issues one /refine and reads the whole reply.
func (b *bench) refine(hc *http.Client, base string, r request) (refineReply, error) {
	ctx, cancel := context.WithTimeout(b.ctx, opTimeout)
	defer cancel()
	status, body, err := httpGet(ctx, hc, base+"/refine?field="+r.field+"&rel="+r.rel)
	if err != nil {
		return refineReply{}, err
	}
	if status != http.StatusOK {
		return refineReply{}, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(body)))
	}
	var reply refineReply
	if err := json.Unmarshal(body, &reply); err != nil {
		return refineReply{}, fmt.Errorf("parse reply: %w", err)
	}
	return reply, nil
}

func (b *bench) windowLength() time.Duration {
	return time.Duration(b.cfg.seconds * float64(time.Second))
}

// refineWindow is the measured window of a refine workload: each client
// follows its schedule, sending the next request when the previous reply
// has been read, until the window's length has passed.
func (b *bench) refineWindow(t *tier) window {
	w := window{length: b.windowLength()}
	perClient := make([][]op, clients)
	// marks[j] is the tier's CPU time at the start of sub-window j; a
	// sampler reads the inner ones on time, the last is read once every
	// client has finished.
	var marks [subWindowCount + 1]cpuTime
	marks[0] = cpuOf(t.procs)
	self0 := selfCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 1; j < subWindowCount; j++ {
			select {
			case <-time.After(time.Until(t0.Add(w.length * time.Duration(j) / subWindowCount))):
			case <-b.ctx.Done():
			}
			marks[j] = cpuOf(t.procs)
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			sched := newWalker(b.cfg.seed, c)
			for time.Since(t0) < w.length && b.ctx.Err() == nil {
				r := sched.next()
				o := op{key: r.key()}
				id := b.tr.start(fmt.Sprintf("client%d", c), "refine "+o.key, 0)
				o.iv.start = time.Since(t0)
				reply, err := b.refine(hc, t.front, r)
				o.iv.end = time.Since(t0)
				b.tr.end(id)
				o.iv.work, o.reply = b.rawFieldBytes(), reply
				if err != nil {
					o.fail = err.Error()
				}
				perClient[c] = append(perClient[c], o)
			}
		}()
	}
	wg.Wait()
	marks[subWindowCount] = cpuOf(t.procs)
	w.self = selfCPU() - self0
	for j := range w.cpu {
		w.cpu[j] = marks[j+1].sub(marks[j])
	}
	for _, ops := range perClient {
		w.ops = append(w.ops, ops...)
	}
	return w
}

// compressWindow is the measured window of the compress workload: one
// `mgard compress` at a time over the seeded field cycle. Artifacts stay on
// disk and are hashed after the window, outside every timed interval.
func (b *bench) compressWindow() window {
	w := window{length: b.windowLength()}
	order := compressOrder(b.cfg.seed)
	self0 := selfCPU()
	t0 := time.Now()
	for i := 0; time.Since(t0) < w.length && b.ctx.Err() == nil; i++ {
		o := op{key: order[i%len(order)], out: filepath.Join(b.dir, fmt.Sprintf("op-%d.pmgd", i))}
		id := b.tr.start("client0", "compress "+o.key, 0)
		o.iv.start = time.Since(t0)
		ps, err := b.compressField(o.key, o.out)
		o.iv.end = time.Since(t0)
		b.tr.end(id)
		o.iv.work = b.rawFieldBytes()
		if err != nil {
			o.fail = err.Error()
		}
		if ps != nil {
			o.cpu = cpuTime{ps.UserTime(), ps.SystemTime()}
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
				o.rssMB = float64(ru.Maxrss) * 1024 / 1e6
				o.faults = float64(ru.Minflt)
			}
		}
		w.ops = append(w.ops, o)
	}
	w.self = selfCPU() - self0
	// Each op's CPU time is spread over the sub-windows like the op itself.
	width := w.length / subWindowCount
	for _, o := range w.ops {
		for j := range w.cpu {
			lo, hi := time.Duration(j)*width, time.Duration(j+1)*width
			if j == subWindowCount-1 {
				hi = math.MaxInt64
			}
			w.cpu[j] = w.cpu[j].add(o.cpu.scale(o.iv.share(lo, hi)))
		}
	}
	return w
}
