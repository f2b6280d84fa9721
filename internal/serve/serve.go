// Package serve is the HTTP serving tier: progressive retrieval for many
// concurrent analysts — the paper's core usage pattern (§II-A) at serving
// scale. Every refine request runs its own core.Session, but all sessions
// share one servecache.Cache, so concurrent refinements of the same field
// deduplicate store reads and lossless decompression (singleflight) and
// warm requests are served from memory within the byte budget.
//
// One Server serves whatever fields were added to it; what a process is —
// standalone, shard node or shard router — is only how cmd/serve wires it:
//
//	standalone  New, AddStore / AddRaw per input
//	node        the same, plus MountPlanes (the internal /planes endpoints)
//	router      New, AddShard (fields discovered from the shard, no local
//	            artifacts)
//
// A field is a header, one servecache.Source of its planes, the cooldown
// of the breaker guarding that source, and a close hook — built by
// AddStore (a .pmgd file or a tiered directory), AddRaw (a raw .field
// probed against every codec backend, core.ProbeBackends, and served under
// the cheapest) or AddShard (a shard.Router's remote client). Handlers
// never ask which.
//
// Endpoints:
//
//	GET /fields                      — names of the served fields
//	GET /open?field=Jx               — header summary of one field
//	GET /refine?field=Jx&rel=1e-4    — refine to a tolerance (or abs=),
//	                                   returns plan, bytes, checksum; a
//	                                   timeout= parameter caps the request
//	                                   deadline below Config.RequestTimeout
//	GET /metrics                     — live metrics snapshot JSON
//	                                   (?format=prom for Prometheus text)
//	GET /healthz                     — liveness probe (process is up)
//	GET /readyz                      — readiness probe (fields probed
//	                                   readable when added, not draining)
//	GET /debug/obs                   — metrics + stage table + slowest requests
//	GET /debug/obs/trace?id=...      — one retained request's span tree
//	GET /planes...                   — shard.NodeHandler, after MountPlanes
//
// Every API request is traced: an inbound W3C traceparent header is
// honoured (a fresh trace is minted otherwise), the response carries the
// traceparent naming the server's root span, stage spans from admission
// through cache, storage and decode record into a per-request span tree
// retained for /debug/obs/trace, and Config.AccessLog receives one
// structured JSON line per request carrying the same trace id.
//
// The tier is hardened for production failure modes (DESIGN.md §11): every
// refine carries a deadline that propagates through the session, cache
// singleflight and storage retry loop; an admission controller bounds
// concurrent refines and sheds overload with 503 + Retry-After; a circuit
// breaker per field (per node, for shard fields) fails fast when a source
// is persistently down; and Shutdown drains gracefully — readiness flips
// first, in-flight requests finish, then handles close.
//
// It scales horizontally as a static shard (internal/shard, DESIGN.md
// §14): a node's /planes endpoints serve decompressed plane bitsets,
// headers and the field list from the node's own cache, and a router
// routes every cache miss to the plane's replica set by consistent
// hashing — a level's misses as one request per node — with per-node
// retry, circuit breaking and failover. The router's shared cache
// singleflight collapses concurrent sessions' misses into one network fetch
// per plane.
package serve

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pmgard/internal/bufpool"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/servecache"
)

// Config configures a Server.
type Config struct {
	// CacheBytes is the shared cache budget (0 = unbounded).
	CacheBytes int64
	// Retries, when > 0, puts every local source behind the retry/backoff
	// layer with this attempt cap — below the cache, so retried fetches are
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
	// Breaker describes the circuit breaker guarding each field's source —
	// one per local field, one per node for shard fields. A
	// FailureThreshold below 1 means no breakers.
	Breaker resilience.BreakerConfig
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

// Server is the HTTP serving layer: a set of fields, the shared plane
// cache every request session consults, and the admission/drain state that
// protects the tier under overload and shutdown.
type Server struct {
	cfg    Config
	fields map[string]*field
	names  []string
	cache  *servecache.Cache
	adm    *resilience.Admission
	o      *obs.Obs
	// mux holds the API routes; MountPlanes adds the node endpoints to it.
	mux *http.ServeMux
	// http answers Serve's listener with Handler.
	http *http.Server
	// logger emits the structured access log; nil disables it.
	logger *slog.Logger
	// draining is set when shutdown begins: /readyz flips to 503 and new
	// refines are rejected while in-flight ones finish.
	draining atomic.Bool
	// closeOnce guarantees store handles are released exactly once even if
	// Close is reached from both the drain path and a deferred cleanup.
	closeOnce sync.Once
}

// New returns a server with no fields; add them with AddStore, AddRaw or
// AddShard before serving.
func New(cfg Config) (*Server, error) {
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
	s := &Server{
		cfg:    cfg,
		fields: make(map[string]*field),
		cache:  cache,
		adm:    adm,
		o:      cfg.Obs,
		mux:    http.NewServeMux(),
		logger: logger,
	}
	s.mux.HandleFunc("/fields", s.handleFields)
	s.mux.HandleFunc("/open", s.handleOpen)
	s.mux.HandleFunc("/refine", s.handleRefine)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.Handle("/debug/obs", obs.Handler(s.o))
	s.mux.Handle("/debug/obs/trace", obs.TraceHandler(s.o.Requests))
	s.http = &http.Server{Handler: s.Handler()}
	return s, nil
}

// Handler returns the full middleware-wrapped API handler: observability
// outermost (so recovery's 500s are traced and logged too), panic recovery
// inside it, routes at the core.
func (s *Server) Handler() http.Handler {
	return s.withObservability(s.withRecovery(s.mux))
}

// Serve answers API requests on ln until Shutdown, then returns
// http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	return s.http.Serve(ln)
}

// Shutdown performs the graceful exit sequence: readiness flips to 503
// first (load balancers stop routing new work), in-flight requests get up
// to drainTimeout to finish, and only then are the store handles released.
func (s *Server) Shutdown(drainTimeout time.Duration) {
	s.beginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.http.Shutdown(ctx); err != nil {
		// The grace period expired with requests still running; cut them off
		// rather than hang shutdown forever.
		s.http.Close()
	}
	s.Close()
}

// beginDrain flips the server into draining mode: /readyz answers 503 and
// new refine requests are rejected so a load balancer stops routing here
// while in-flight work completes.
func (s *Server) beginDrain() {
	s.draining.Store(true)
}

// Close releases the fields' handles; it is safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		for _, fh := range s.fields {
			if fh.close != nil {
				fh.close()
			}
		}
	})
}

// withRecovery converts a handler panic into a 500 plus a serve.panics
// count instead of killing the connection silently; http.ErrAbortHandler
// is re-raised because it is the sanctioned way to abort a response.
func (s *Server) withRecovery(next http.Handler) http.Handler {
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
