// Command serve exposes progressive retrieval over HTTP: it parses flags,
// wires one internal/serve Server for the requested role and runs it until
// SIGINT/SIGTERM. That package documents the endpoints, the hardening and
// the shard tier.
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
// The standard observability flags behave as in cmd/mgard: -metrics-out
// and -trace-out write snapshots on shutdown (SIGINT/SIGTERM), -debug-addr
// serves expvar + pprof + /debug/obs alongside the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/serve"
	"pmgard/internal/shard"
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
	switch local := *in != "" || *raw != ""; {
	case *role != "" && *role != "node" && *role != "router":
		return fmt.Errorf("bad -role %q (want node or router)", *role)
	case *role == "router" && *shardMap == "":
		return fmt.Errorf("-role router requires -shard-map")
	case *role == "router" && local:
		return fmt.Errorf("-role router serves the shard's fields; it takes no -in/-raw")
	case *role != "router" && !local:
		return fmt.Errorf("-in or -raw is required")
	}
	logDst, logClose, err := openAccessLog(*accessLog)
	if err != nil {
		return err
	}
	if logClose != nil {
		defer logClose()
	}
	var level slog.Level // the zero value is info, also used for unknown names
	_ = level.UnmarshalText([]byte(*logLevel))
	o, err := of.Start(os.Stderr)
	if err != nil {
		return err
	}
	if o == nil {
		// The server always keeps a registry: /metrics serves it live even
		// when no snapshot file or debug endpoint was requested.
		o = obs.New()
	}

	srv, err := serve.New(serve.Config{
		CacheBytes:     *cacheBytes,
		Retries:        *retries,
		RequestTimeout: *requestTimeout,
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		Breaker:        resilience.BreakerConfig{FailureThreshold: *breakerFailures, Cooldown: *breakerCooldown},
		AccessLog:      logDst,
		LogLevel:       level,
		SLOLatency:     *sloLatency,
		Obs:            o,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, path := range splitList(*in) {
		if err := srv.AddStore(path); err != nil {
			return err
		}
	}
	for _, path := range splitList(*raw) {
		backend, err := srv.AddRaw(path)
		if err != nil {
			return err
		}
		fmt.Printf("probed %s: serving under the %s backend\n", path, backend)
	}
	switch *role {
	case "node":
		srv.MountPlanes()
	case "router":
		m, err := shard.LoadMap(*shardMap)
		if err != nil {
			return err
		}
		if err := srv.AddShard(context.Background(), m); err != nil {
			return err
		}
		fmt.Printf("routing %d fields over %d nodes (replication %d)\n",
			len(srv.PlaneFields()), len(m.Nodes), m.Replication)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("listen %s: %w", *addr, err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	fmt.Printf("serving %s on http://%s (cache budget %d bytes)\n",
		strings.Join(srv.PlaneFields(), ", "), ln.Addr(), *cacheBytes)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("received %v, draining\n", s)
	}
	srv.Shutdown(*drainTimeout)
	return of.Finish(o)
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
