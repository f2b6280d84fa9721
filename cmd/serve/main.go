// Command serve exposes progressive retrieval over HTTP for many
// concurrent analysts — the paper's core usage pattern (§II-A) at serving
// scale. Every refine request runs its own core.Session, but all sessions
// share one servecache.Cache, so concurrent refinements of the same field
// deduplicate store reads and lossless decompression (singleflight) and
// warm requests are served from memory within the byte budget.
//
// Usage:
//
//	serve -in jx.pmgd[,ex.tiered/...] [-raw jx.field,...]
//	      [-addr localhost:8080]
//	      [-role node|router] [-shard-map map.json]
//	      [-cache-bytes 268435456] [-retries 0]
//	      [-request-timeout 30s] [-drain-timeout 10s]
//	      [-max-inflight 0] [-max-queue 0]
//	      [-breaker-failures 5] [-breaker-cooldown 2s]
//	      [-access-log path|stdout|stderr] [-log-level info] [-slo-latency 1s]
//	      [-metrics-out metrics.json] [-trace-out trace.json] [-debug-addr addr]
//
// Each -in entry is a .pmgd file or a tiered-store directory (one holding a
// manifest.json, as `mgard compress -tiered` writes).
//
// Raw .field inputs are probed at startup: every registered progressive
// codec backend is tried against the field (core.ProbeBackends) and the
// field is refactored and served under the backend whose measured retrieval
// cost is lowest — the per-field codec selection recorded by
// `compare -probe -bench-out BENCH_codec.json`.
//
// Endpoints:
//
//	GET /fields                      — names of the served fields
//	GET /open?field=Jx               — header summary of one field
//	GET /refine?field=Jx&rel=1e-4    — refine to a tolerance (or abs=),
//	                                   returns plan, bytes, checksum; a
//	                                   timeout= parameter caps the request
//	                                   deadline below -request-timeout
//	GET /metrics                     — live metrics snapshot JSON
//	                                   (?format=prom for Prometheus text)
//	GET /healthz                     — liveness probe (process is up)
//	GET /readyz                      — readiness probe (fields probed
//	                                   readable at startup, not draining)
//	GET /debug/obs                   — metrics + stage table + slowest requests
//	GET /debug/obs/trace?id=...      — one retained request's span tree
//
// Every API request is traced: an inbound W3C traceparent header is
// honoured (a fresh trace is minted otherwise), the response carries the
// traceparent naming the server's root span, stage spans from admission
// through cache, storage and decode record into a per-request span tree
// retained for /debug/obs/trace, and -access-log writes one structured
// JSON line per request carrying the same trace id.
//
// The serving tier is hardened for production failure modes: every refine
// carries a deadline that propagates through the session, cache singleflight
// and storage retry loop; an admission controller bounds concurrent refines
// and sheds overload with 503 + Retry-After; a per-field circuit breaker
// fails fast when a field's store is persistently down; and SIGINT/SIGTERM
// drain gracefully — readiness flips first, in-flight requests finish,
// then handles close.
//
// The serving tier also scales horizontally as a static shard
// (internal/shard): `-role node` additionally exposes the internal /planes
// endpoints (decompressed plane bitsets, headers, field list) backed by the
// node's own cache, and `-role router -shard-map map.json` serves the
// public API with no local artifacts at all — fields are discovered from
// the shard, and every cache miss is routed to the plane's replica set by
// consistent hashing, with per-node retry, circuit breaking and failover.
// The router's shared cache singleflight collapses concurrent sessions'
// misses into one network fetch per plane.
//
// The standard observability flags behave as in cmd/mgard: -metrics-out
// and -trace-out write snapshots on shutdown (SIGINT/SIGTERM), -debug-addr
// serves expvar + pprof + /debug/obs alongside the API.
package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"pmgard/internal/bufpool"
	"pmgard/internal/core"
	"pmgard/internal/fieldio"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/servecache"
	"pmgard/internal/shard"
	"pmgard/internal/storage"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address for the API")
	in := fs.String("in", "", "comma-separated .pmgd files and tiered-store directories to serve")
	raw := fs.String("raw", "", "comma-separated raw .field files to probe, refactor under the winning codec backend, and serve")
	role := fs.String("role", "", "shard tier role: \"node\" also exposes the internal /planes endpoints, \"router\" serves fields fetched from a shard of nodes (requires -shard-map)")
	shardMap := fs.String("shard-map", "", "shard map JSON file describing the node set (router role)")
	cacheBytes := fs.Int64("cache-bytes", 256<<20, "shared plane-cache budget in decompressed bytes (0 = unbounded)")
	retries := fs.Int("retries", 0, "wrap stores in the retry/backoff layer with this attempt cap (0 = no retry layer)")
	requestTimeout := fs.Duration("request-timeout", 30*time.Second, "per-refine deadline propagated through fetch and retry (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "shutdown grace period for in-flight requests")
	maxInflight := fs.Int("max-inflight", 0, "max concurrent refines before queueing (0 = unlimited)")
	maxQueue := fs.Int("max-queue", 0, "max refines waiting for an inflight slot before shedding with 503")
	breakerFailures := fs.Int("breaker-failures", 5, "consecutive store failures that open a field's circuit breaker (0 = no breaker)")
	breakerCooldown := fs.Duration("breaker-cooldown", 2*time.Second, "open-state cooldown before the breaker probes the store again")
	accessLog := fs.String("access-log", "", "structured JSON access log destination: a file path, \"stdout\" or \"stderr\" (empty = disabled)")
	logLevel := fs.String("log-level", "info", "minimum access-log level: debug, info, warn or error")
	sloLatency := fs.Duration("slo-latency", time.Second, "refine latency objective for the serve.slo_good/serve.slo_total counters (0 disables SLO accounting)")
	var of obs.Flags
	of.Register(fs)
	fs.Parse(args)
	switch *role {
	case "", "node", "router":
	default:
		return fmt.Errorf("bad -role %q (want node or router)", *role)
	}
	if *role == "router" {
		if *shardMap == "" {
			return fmt.Errorf("-role router requires -shard-map")
		}
		if *in != "" || *raw != "" {
			return fmt.Errorf("-role router serves the shard's fields; it takes no -in/-raw")
		}
	} else if *in == "" && *raw == "" {
		return fmt.Errorf("-in or -raw is required")
	}
	logDst, logClose, err := openAccessLog(*accessLog)
	if err != nil {
		return err
	}
	if logClose != nil {
		defer logClose()
	}
	o, err := of.Start(os.Stderr)
	if err != nil {
		return err
	}
	if o == nil {
		// The server always keeps a registry: /metrics serves it live even
		// when no snapshot file or debug endpoint was requested.
		o = obs.New()
	}

	srv, err := newServer(serverConfig{
		Role:            *role,
		CacheBytes:      *cacheBytes,
		Retries:         *retries,
		RequestTimeout:  *requestTimeout,
		MaxInflight:     *maxInflight,
		MaxQueue:        *maxQueue,
		BreakerFailures: *breakerFailures,
		BreakerCooldown: *breakerCooldown,
		AccessLog:       logDst,
		LogLevel:        parseLogLevel(*logLevel),
		SLOLatency:      *sloLatency,
		Obs:             o,
	})
	if err != nil {
		return err
	}
	defer srv.close()
	for _, path := range splitList(*in) {
		if err := srv.addFile(path); err != nil {
			return err
		}
	}
	for _, path := range splitList(*raw) {
		backend, err := srv.addRaw(path)
		if err != nil {
			return err
		}
		fmt.Printf("probed %s: serving under the %s backend\n", path, backend)
	}
	if *role == "router" {
		m, err := shard.LoadMap(*shardMap)
		if err != nil {
			return err
		}
		if err := srv.initRouter(context.Background(), m); err != nil {
			return err
		}
		fmt.Printf("routing %d fields over %d nodes (replication %d)\n",
			len(srv.names), len(m.Nodes), m.Replication)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Printf("serving %s on http://%s (cache budget %d bytes)\n",
		strings.Join(srv.names, ", "), ln.Addr(), *cacheBytes)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("received %v, draining\n", s)
	}
	drainAndShutdown(srv, httpSrv, *drainTimeout)
	return of.Finish(o)
}

// drainAndShutdown performs the graceful exit sequence: readiness flips to
// 503 first (load balancers stop routing new work), in-flight requests get
// up to drainTimeout to finish via http.Server.Shutdown, and only then are
// the store handles released.
func drainAndShutdown(srv *server, httpSrv *http.Server, drainTimeout time.Duration) {
	srv.beginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// The grace period expired with requests still running; cut them off
		// rather than hang shutdown forever.
		httpSrv.Close()
	}
	srv.close()
}

// openAccessLog resolves the -access-log flag: "stdout"/"stderr" write to
// the process streams, anything else is a file path opened for append, and
// "" disables the access log entirely.
func openAccessLog(dst string) (io.Writer, func() error, error) {
	switch dst {
	case "":
		return nil, nil, nil
	case "stdout":
		return os.Stdout, nil, nil
	case "stderr":
		return os.Stderr, nil, nil
	}
	f, err := os.OpenFile(dst, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("access log %s: %w", dst, err)
	}
	return f, f.Close, nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// fieldHandle is one served field: its header, the one plane source every
// read of it goes through, and the handle to release on shutdown.
type fieldHandle struct {
	header *core.Header
	// planes fills the shared cache's misses: a validating core.PlaneStore
	// over the (possibly retry- and breaker-wrapped) local segment source,
	// or the router role's remote-node client. /refine sessions, the node
	// role's /planes endpoint and the readiness probe all read it through
	// the cache under header.PlaneKey, so they fill one set of entries.
	planes servecache.Source
	close  func() error
	// breaker is the field's circuit breaker, nil when disabled.
	breaker *resilience.Breaker
	// probeErr is the startup readiness probe result: the error from
	// fetching the field's first plane when it was registered.
	probeErr error
}

// serverConfig configures a server independently of flag parsing so tests
// can construct one directly.
type serverConfig struct {
	// Role is the shard tier role: "" (standalone), "node" (also serve the
	// internal /planes endpoints), or "router" (serve fields fetched from a
	// shard of nodes; see initRouter).
	Role string
	// CacheBytes is the shared cache budget (0 = unbounded).
	CacheBytes int64
	// Retries, when > 0, wraps every source in a storage.RetryingSource
	// with this attempt cap — below the cache, so retried fetches are
	// deduplicated too.
	Retries int
	// RequestTimeout bounds each refine request (0 = unbounded). Clients
	// may lower it per request with the timeout= query parameter but never
	// raise it.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrent refine executions (0 = unlimited).
	MaxInflight int
	// MaxQueue bounds refines waiting for an inflight slot; overflow is
	// shed with 503 + Retry-After. Only meaningful with MaxInflight > 0.
	MaxQueue int
	// BreakerFailures is the consecutive-failure threshold that opens a
	// field's circuit breaker (0 disables breakers).
	BreakerFailures int
	// BreakerCooldown is the open-state cooldown before half-open probing;
	// 0 uses the resilience default.
	BreakerCooldown time.Duration
	// AccessLog, when non-nil, receives one structured JSON log line per
	// API request (nil disables access logging).
	AccessLog io.Writer
	// LogLevel is the minimum level for access log lines.
	LogLevel slog.Level
	// SLOLatency is the refine latency objective behind the serve.slo_good
	// and serve.slo_total counters (0 disables SLO accounting).
	SLOLatency time.Duration
	// Obs receives the server's telemetry; must be non-nil.
	Obs *obs.Obs
}

// server is the HTTP serving layer: a set of opened fields, the shared
// plane cache every request session consults, and the admission/drain
// state that protects the tier under overload and shutdown.
type server struct {
	cfg    serverConfig
	fields map[string]*fieldHandle
	names  []string
	cache  *servecache.Cache
	adm    *resilience.Admission
	o      *obs.Obs
	// router is the shard-tier client, non-nil only in the router role.
	router *shard.Router
	// logger emits the structured access log; nil disables it.
	logger *slog.Logger
	// draining is set when shutdown begins: /readyz flips to 503 and new
	// refines are rejected while in-flight ones finish.
	draining atomic.Bool
	// closeOnce guarantees store handles are released exactly once even if
	// close is reached from both the drain path and a deferred cleanup.
	closeOnce sync.Once
}

func newServer(cfg serverConfig) (*server, error) {
	if cfg.Obs == nil {
		return nil, fmt.Errorf("server needs an Obs (use obs.New())")
	}
	cache := servecache.New(cfg.CacheBytes)
	cache.Instrument(cfg.Obs)
	bufpool.Instrument(cfg.Obs)
	adm := resilience.NewAdmission(cfg.MaxInflight, cfg.MaxQueue)
	adm.Instrument(cfg.Obs, "serve")
	// A serving process always reports its own health: /metrics carries
	// runtime.* goroutine/heap/GC gauges alongside the pipeline metrics.
	cfg.Obs.Metrics.EnableRuntimeMetrics()
	var logger *slog.Logger
	if cfg.AccessLog != nil {
		logger = slog.New(slog.NewJSONHandler(cfg.AccessLog, &slog.HandlerOptions{Level: cfg.LogLevel}))
	}
	return &server{
		cfg:    cfg,
		fields: make(map[string]*fieldHandle),
		cache:  cache,
		adm:    adm,
		o:      cfg.Obs,
		logger: logger,
	}, nil
}

// add registers an opened field under its header's field name, layering the
// resilience stack: retries closest to the store, the circuit breaker above
// them (one tier outage costs one breaker failure, not one per attempt),
// and probing the first plane for the readiness report.
func (s *server) add(h *core.Header, src storage.SegmentSource, closeFn func() error) error {
	if _, ok := s.fields[h.FieldName]; ok {
		return fmt.Errorf("duplicate field %q", h.FieldName)
	}
	if s.cfg.Retries > 0 {
		pol := storage.DefaultRetryPolicy()
		pol.MaxAttempts = s.cfg.Retries
		retrying := storage.NewRetryingSource(src, pol)
		retrying.Instrument(s.o)
		src = retrying
	}
	fh := &fieldHandle{header: h, close: closeFn}
	if s.cfg.BreakerFailures > 0 {
		fh.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: s.cfg.BreakerFailures,
			Cooldown:         s.cfg.BreakerCooldown,
		})
		fh.breaker.Instrument(s.o, h.FieldName)
		src = resilience.BreakerSource{Src: src, Breaker: fh.breaker}
	}
	store, err := core.NewPlaneStore(h, src)
	if err != nil {
		return fmt.Errorf("field %q: %w", h.FieldName, err)
	}
	fh.planes = store
	s.register(context.Background(), fh)
	return nil
}

// register probes the field's first plane end to end — cache, validation
// and, in the router role, placement and the node fetch — for the readiness
// report, then starts serving it.
func (s *server) register(ctx context.Context, fh *fieldHandle) {
	h := fh.header
	if h.Planes > 0 && len(h.Levels) > 0 {
		_, _, fh.probeErr = shard.CachedField(h, s.cache, fh.planes).Fetch(ctx, 0, 0)
	}
	s.fields[h.FieldName] = fh
	s.names = append(s.names, h.FieldName)
}

// initRouter turns the server into the shard's public face: it discovers
// the shard's fields, fetches each header, and registers a remote-backed
// handle whose cache misses are fetched from the plane's replica set over
// HTTP. The shared cache's singleflight then collapses concurrent
// sessions' misses into one network fetch per plane.
func (s *server) initRouter(ctx context.Context, m *shard.Map) error {
	bf := s.cfg.BreakerFailures
	if bf == 0 {
		// serverConfig uses 0 = disabled; RouterConfig uses negative.
		bf = -1
	}
	r, err := shard.NewRouter(shard.RouterConfig{
		Map:             m,
		BreakerFailures: bf,
		BreakerCooldown: s.cfg.BreakerCooldown,
		Obs:             s.o,
	})
	if err != nil {
		return err
	}
	s.router = r
	names, err := r.Fields(ctx)
	if err != nil {
		return fmt.Errorf("discover shard fields: %w", err)
	}
	if len(names) == 0 {
		return fmt.Errorf("shard serves no fields")
	}
	for _, name := range names {
		if _, ok := s.fields[name]; ok {
			return fmt.Errorf("duplicate field %q", name)
		}
		h, err := r.Header(ctx, name)
		if err != nil {
			return err
		}
		s.register(ctx, &fieldHandle{header: h, planes: r.FieldClient(h)})
	}
	return nil
}

// PlaneField implements shard.NodeSource: the node role's /planes endpoint
// serves planes through the same cache and plane source as the field's
// refine sessions, so router traffic and node-local refine traffic
// deduplicate into the same cache entries and singleflight groups.
func (s *server) PlaneField(name string) (shard.NodeField, bool) {
	fh, ok := s.fields[name]
	if !ok {
		return shard.NodeField{}, false
	}
	return shard.CachedField(fh.header, s.cache, fh.planes), true
}

// PlaneFields implements shard.NodeSource.
func (s *server) PlaneFields() []string {
	return s.names
}

// addFile serves the store at path, a .pmgd file or a tiered directory.
func (s *server) addFile(path string) error {
	h, st, err := core.OpenFile(path)
	if err != nil {
		return err
	}
	st.Instrument(s.o)
	return s.add(h, st, st.Close)
}

// addRaw probes a raw .field file against every registered codec backend,
// refactors it under the winner, and serves the in-memory artifact. Returns
// the selected backend ID.
func (s *server) addRaw(path string) (string, error) {
	meta, field, err := fieldio.Read(path)
	if err != nil {
		return "", err
	}
	cmp, err := core.ProbeBackends(field, core.DefaultConfig(), meta.Field, nil, nil)
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig()
	cfg.Backend = cmp.Winner
	c, err := core.Compress(field, cfg, meta.Field, meta.Timestep)
	if err != nil {
		return "", err
	}
	return cmp.Winner, s.add(&c.Header, c, nil)
}

// beginDrain flips the server into draining mode: /readyz answers 503 and
// new refine requests are rejected so a load balancer stops routing here
// while in-flight work completes.
func (s *server) beginDrain() {
	s.draining.Store(true)
}

func (s *server) close() {
	s.closeOnce.Do(func() {
		for _, fh := range s.fields {
			if fh.close != nil {
				fh.close()
			}
		}
	})
}

// handler returns the full middleware-wrapped API handler: observability
// outermost (so recovery's 500s are traced and logged too), panic recovery
// inside it, routes at the core.
func (s *server) handler() http.Handler {
	return s.withObservability(s.withRecovery(s.mux()))
}

// mux returns the API routes.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/fields", s.handleFields)
	mux.HandleFunc("/open", s.handleOpen)
	mux.HandleFunc("/refine", s.handleRefine)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.handleReady)
	if s.cfg.Role == "node" {
		nh := shard.NewNodeHandler(s, s.o)
		mux.Handle("/planes", nh)
		mux.Handle("/planes/", nh)
	}
	mux.Handle("/debug/obs", obs.Handler(s.o))
	mux.Handle("/debug/obs/trace", obs.TraceHandler(s.o.Requests))
	return mux
}

// withRecovery converts a handler panic into a 500 plus a serve.panics
// count instead of killing the connection silently; http.ErrAbortHandler
// is re-raised because it is the sanctioned way to abort a response.
func (s *server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec)
				}
				s.o.Counter("serve.panics").Add(1)
				s.fail(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleReady is the readiness probe: 200 only when every field's first
// segment was readable when it was registered and the server is not
// draining. Distinct from /healthz, which only says the process is alive —
// a load balancer should route on /readyz and page on /healthz.
func (s *server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		s.failDetail(w, http.StatusServiceUnavailable, fmt.Errorf("draining"), "draining")
		return
	}
	for _, name := range s.names {
		if err := s.fields[name].probeErr; err != nil {
			s.failDetail(w, http.StatusServiceUnavailable,
				fmt.Errorf("field %q failed startup read probe: %v", name, err), "probe_failed")
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

// lookup resolves the field query parameter; with a single served field the
// parameter is optional.
func (s *server) lookup(r *http.Request) (*fieldHandle, string, error) {
	name := r.URL.Query().Get("field")
	if name == "" {
		if len(s.names) == 1 {
			name = s.names[0]
		} else {
			return nil, "", fmt.Errorf("field parameter required (serving %s)", strings.Join(s.names, ", "))
		}
	}
	fh, ok := s.fields[name]
	if !ok {
		return nil, name, fmt.Errorf("unknown field %q (serving %s)", name, strings.Join(s.names, ", "))
	}
	return fh, name, nil
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The response is already partially written, so no status rewrite is
		// possible — count and log the failure instead of dropping it.
		s.o.Counter("serve.errors").Add(1)
		fmt.Fprintf(os.Stderr, "serve: encode response: %v\n", err)
	}
}

// errorResponse is the JSON error body: machine-readable status and a
// detail tag ("deadline", "shed", "breaker_open", "upstream", ...) so
// clients can branch on the failure mode without parsing prose.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
	Detail string `json:"detail,omitempty"`
}

func (s *server) fail(w http.ResponseWriter, code int, err error) {
	s.failDetail(w, code, err, "")
}

// failDetail writes a JSON error body with the given status and detail tag.
// 503s carry Retry-After so well-behaved clients back off instead of
// hammering an overloaded or draining server; callers that know how long
// the condition will last (failRefine) set the header first and the
// 1-second default only fills in when they have not.
func (s *server) failDetail(w http.ResponseWriter, code int, err error, detail string) {
	s.o.Counter("serve.errors").Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	if code == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if eerr := enc.Encode(errorResponse{Error: err.Error(), Status: code, Detail: detail}); eerr != nil {
		fmt.Fprintf(os.Stderr, "serve: encode error response: %v\n", eerr)
	}
}

func (s *server) handleFields(w http.ResponseWriter, _ *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	s.writeJSON(w, map[string]any{"fields": s.names})
}

// openResponse is the /open document: the header facts a client needs to
// plan refinements without fetching payload.
type openResponse struct {
	Field      string  `json:"field"`
	Timestep   int     `json:"timestep"`
	Dims       []int   `json:"dims"`
	Levels     int     `json:"levels"`
	Planes     int     `json:"planes"`
	Codec      string  `json:"codec"`
	Backend    string  `json:"backend"`
	ValueRange float64 `json:"value_range"`
	TotalBytes int64   `json:"total_bytes"`
}

func (s *server) handleOpen(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	fh, _, err := s.lookup(r)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	h := fh.header
	s.writeJSON(w, openResponse{
		Field:      h.FieldName,
		Timestep:   h.Timestep,
		Dims:       h.Dims,
		Levels:     len(h.Levels),
		Planes:     h.Planes,
		Codec:      h.CodecName,
		Backend:    h.Codec(),
		ValueRange: h.ValueRange,
		TotalBytes: h.TotalBytes(),
	})
}

// refineResponse is the /refine document: the executed plan and enough
// derived facts (checksum, byte counts) for clients to verify agreement
// across requests without shipping the reconstruction itself.
type refineResponse struct {
	Field          string  `json:"field"`
	Tolerance      float64 `json:"tolerance"`
	Planes         []int   `json:"planes"`
	BytesFetched   int64   `json:"bytes_fetched"`
	EstimatedError float64 `json:"estimated_error"`
	Degraded       bool    `json:"degraded"`
	Checksum       string  `json:"checksum"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// statusClientClosedRequest is the nginx-convention status for a request
// whose client went away before the response was ready.
const statusClientClosedRequest = 499

func (s *server) handleRefine(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	ar := accessFrom(r.Context())
	if s.draining.Load() {
		ar.setOutcome("draining")
		s.failDetail(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"), "draining")
		return
	}
	fh, _, err := s.lookup(r)
	if err != nil {
		ar.setOutcome("not_found")
		s.fail(w, http.StatusNotFound, err)
		return
	}
	h := fh.header
	if ar != nil {
		ar.field = h.FieldName
	}
	tol, err := parseTolerance(r, h)
	if err != nil {
		ar.setOutcome("bad_request")
		s.failDetail(w, http.StatusBadRequest, err, "bad_tolerance")
		return
	}
	if ar != nil {
		ar.tol = tol
	}
	timeout, err := requestDeadline(r, s.cfg.RequestTimeout)
	if err != nil {
		ar.setOutcome("bad_request")
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	root := obs.SpanFromContext(ctx)
	asp := root.Child("serve.admission")
	release, err := s.adm.Acquire(ctx)
	asp.Fail(err)
	asp.End()
	if err != nil {
		s.failRefine(w, ar, fh, err)
		return
	}
	defer release()

	start := time.Now()
	ssp := root.Child("serve.session")
	sess, err := core.NewSharedSession(h, fh.planes, s.cache)
	ssp.Fail(err)
	ssp.End()
	if err != nil {
		ar.setOutcome("internal")
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	sess.Instrument(s.o)
	rec, plan, deg, err := sess.Refine(ctx, h.TheoryEstimator(), tol)
	if ar != nil {
		ar.bytes = sess.BytesFetched()
		ar.hits = sess.CacheHits()
	}
	if err != nil {
		s.failRefine(w, ar, fh, fmt.Errorf("refine: %w", err))
		return
	}
	elapsed := time.Since(start).Seconds()
	if ar != nil {
		ar.degraded = deg != nil
	}
	tc, _ := obs.TraceFromContext(ctx)
	s.o.Counter("serve.refines").Add(1)
	s.o.Histogram("serve.refine_seconds", obs.LatencyBuckets()).ObserveExemplar(elapsed, tc.TraceID)
	csp := root.Child("serve.checksum")
	checksum := tensorChecksum(rec)
	csp.End()
	s.writeJSON(w, refineResponse{
		Field:          h.FieldName,
		Tolerance:      tol,
		Planes:         plan.Planes,
		BytesFetched:   sess.BytesFetched(),
		EstimatedError: plan.EstimatedError,
		Degraded:       deg != nil,
		Checksum:       checksum,
		ElapsedSeconds: elapsed,
	})
}

// failRefine maps a refine failure to its transport meaning: the request's
// own deadline expiring is a 504, overload shedding and an open breaker are
// retryable 503s, a client disconnect is 499, and only genuine upstream
// store faults surface as 502. The chosen tag also lands on the access
// record, so the log line names the failure mode, not just the status.
//
// Retryable 503s derive their Retry-After from the actual condition
// instead of a constant: an open breaker reports the cooldown remaining
// (the field's own breaker, or the soonest node breaker in the router
// role), and shedding scales with queue pressure — each full
// MaxInflight-worth of queued refines adds a second, so a deeper backlog
// pushes retries further out.
func (s *server) failRefine(w http.ResponseWriter, ar *accessRecord, fh *fieldHandle, err error) {
	var code int
	var detail string
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		code, detail = http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, resilience.ErrShed):
		code, detail = http.StatusServiceUnavailable, "shed"
		wait := int64(1)
		if s.cfg.MaxInflight > 0 {
			wait += s.adm.Stats().Queued / int64(s.cfg.MaxInflight)
		}
		w.Header().Set("Retry-After", strconv.FormatInt(wait, 10))
	case errors.Is(err, resilience.ErrOpen):
		code, detail = http.StatusServiceUnavailable, "breaker_open"
		var wait time.Duration
		if fh != nil && fh.breaker != nil {
			wait = fh.breaker.RetryAfter()
		} else if s.router != nil {
			wait = s.router.RetryAfter()
		}
		if wait > 0 {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
		}
	case errors.Is(err, context.Canceled):
		code, detail = statusClientClosedRequest, "client_gone"
	default:
		code, detail = http.StatusBadGateway, "upstream"
	}
	ar.setOutcome(detail)
	s.failDetail(w, code, err, detail)
}

// retryAfterSeconds formats a cooldown remaining as a Retry-After value:
// whole seconds rounded up, never below 1 (a 0 would invite an immediate
// retry against a still-open breaker).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// requestDeadline resolves the effective refine deadline: the server's
// -request-timeout, capped lower (never raised) by a timeout= query
// parameter in Go duration syntax.
func requestDeadline(r *http.Request, serverTimeout time.Duration) (time.Duration, error) {
	v := r.URL.Query().Get("timeout")
	if v == "" {
		return serverTimeout, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad timeout %q (want a positive Go duration like 500ms)", v)
	}
	if serverTimeout > 0 && d > serverTimeout {
		return serverTimeout, nil
	}
	return d, nil
}

// parseTolerance resolves the abs= or rel= tolerance parameter. Only
// finite positive values are accepted: strconv.ParseFloat happily returns
// NaN and ±Inf for "NaN"/"+Inf", and both slip past a plain `<= 0` check
// (every comparison with NaN is false) — a NaN tolerance then poisons the
// planner's error comparisons into refining nothing or everything.
func parseTolerance(r *http.Request, h *core.Header) (float64, error) {
	q := r.URL.Query()
	if v := q.Get("abs"); v != "" {
		tol, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(tol) || math.IsInf(tol, 0) || tol <= 0 {
			return 0, fmt.Errorf("bad abs tolerance %q (want a finite positive number)", v)
		}
		return tol, nil
	}
	if v := q.Get("rel"); v != "" {
		rel, err := strconv.ParseFloat(v, 64)
		if err != nil || math.IsNaN(rel) || math.IsInf(rel, 0) || rel <= 0 {
			return 0, fmt.Errorf("bad rel tolerance %q (want a finite positive number)", v)
		}
		return h.AbsTolerance(rel), nil
	}
	return 0, fmt.Errorf("rel or abs tolerance parameter required")
}

// tensorChecksum fingerprints a reconstruction (CRC32 over the little-
// endian float64 payload) so clients can assert two refinements agreed.
func tensorChecksum(t *grid.Tensor) string {
	return fmt.Sprintf("%08x", checksumLE(t.Data(), hostLittleEndian))
}

// hostLittleEndian reports whether a float64's bytes in memory already are
// its little-endian encoding.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// checksumLE returns the CRC32 (IEEE) of the little-endian byte image of
// data. When memory is that image (inMemory) the slice's own bytes are hashed
// in one call; otherwise the values are encoded a buffer at a time, so every
// host computes the same, little-endian-defined, value.
func checksumLE(data []float64, inMemory bool) uint32 {
	if len(data) == 0 {
		return 0
	}
	if inMemory {
		return crc32.ChecksumIEEE(unsafe.Slice((*byte)(unsafe.Pointer(&data[0])), 8*len(data)))
	}
	var crc uint32
	var buf [4096]byte
	for len(data) > 0 {
		n := min(len(data), len(buf)/8)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:8*n])
		data = data[n:]
	}
	return crc
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", obs.PromContentType)
		s.o.Metrics.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.o.Metrics.WriteJSON(w)
}
