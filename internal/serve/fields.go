package serve

import (
	"context"
	"fmt"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/fieldio"
	"pmgard/internal/resilience"
	"pmgard/internal/servecache"
	"pmgard/internal/shard"
	"pmgard/internal/storage"
)

// field is one served field — all the server knows about it, whichever
// wiring built it: its header, the one plane source every read of it goes
// through, how long its breaker will keep refusing, and how to release it.
type field struct {
	header *core.Header
	// planes fills the shared cache's misses: a validating core.PlaneStore
	// over the guarded local segment source, or a shard client. /refine
	// sessions, the /planes endpoints and the readiness probe all read it
	// through the cache under header.PlaneKey, so they fill one set of
	// entries.
	planes servecache.Source
	// retryAfter is the cooldown remaining while the breaker guarding planes
	// refuses reads (the field's own, or the soonest of the shard's node
	// breakers), 0 otherwise; a 503 breaker_open derives Retry-After from it.
	retryAfter func() time.Duration
	// close releases the field's handle on shutdown; nil when there is none.
	close func() error
	// probeErr is the startup readiness probe result: the error from
	// fetching the field's first plane when it was added.
	probeErr error
}

// add probes the field's first plane end to end — cache, validation and,
// for a shard field, placement and the node fetch — for the readiness
// report, then starts serving it under its header's field name.
func (s *Server) add(ctx context.Context, f *field) error {
	h := f.header
	if _, ok := s.fields[h.FieldName]; ok {
		return fmt.Errorf("duplicate field %q", h.FieldName)
	}
	if h.Planes > 0 && len(h.Levels) > 0 {
		f.probeErr = shard.CachedField(h, s.cache, f.planes).Fetch(ctx, 0, []int{0})[0].Err
	}
	s.fields[h.FieldName] = f
	s.names = append(s.names, h.FieldName)
	return nil
}

// addLocal serves a field from a local segment source behind the
// resilience stack (resilience.Guard): -retries attempts closest to the
// source, the field's own breaker above them.
func (s *Server) addLocal(h *core.Header, src storage.SegmentSource, closeFn func() error) error {
	pol := storage.DefaultRetryPolicy()
	pol.MaxAttempts = s.cfg.Retries
	breaker := resilience.NewBreaker(s.cfg.Breaker, s.o, h.FieldName)
	store, err := core.NewPlaneStore(h, resilience.Guard(src, pol, breaker, s.o))
	if err != nil {
		return fmt.Errorf("field %q: %w", h.FieldName, err)
	}
	return s.add(context.Background(), &field{header: h, planes: store, retryAfter: breaker.RetryAfter, close: closeFn})
}

// AddStore serves the store at path, a .pmgd file or a tiered directory.
func (s *Server) AddStore(path string) error {
	h, st, err := core.OpenFile(path)
	if err != nil {
		return err
	}
	st.Instrument(s.o)
	return s.addLocal(h, st, st.Close)
}

// AddRaw probes a raw .field file against every registered codec backend,
// refactors it under the winner, and serves the in-memory artifact. It
// returns the selected backend ID.
func (s *Server) AddRaw(path string) (string, error) {
	meta, data, err := fieldio.Read(path)
	if err != nil {
		return "", err
	}
	cmp, err := core.ProbeBackends(data, core.DefaultConfig(), meta.Field, nil, nil)
	if err != nil {
		return "", err
	}
	cfg := core.DefaultConfig()
	cfg.Backend = cmp.Winner
	c, err := core.Compress(data, cfg, meta.Field, meta.Timestep)
	if err != nil {
		return "", err
	}
	return cmp.Winner, s.addLocal(&c.Header, c, nil)
}

// AddShard makes the server the public face of the shard behind m: it
// discovers the shard's fields, fetches each header, and serves each from
// a remote plane source whose cache misses are fetched from the plane's
// replica set over HTTP, with per-node retry, circuit breaking
// (Config.Breaker, per node) and failover. The shared cache's singleflight
// then collapses concurrent sessions' misses into one network fetch per
// plane.
func (s *Server) AddShard(ctx context.Context, m *shard.Map) error {
	r, err := shard.NewRouter(shard.RouterConfig{Map: m, Breaker: s.cfg.Breaker, Obs: s.o})
	if err != nil {
		return err
	}
	names, err := r.Fields(ctx)
	if err != nil {
		return fmt.Errorf("discover shard fields: %w", err)
	}
	if len(names) == 0 {
		return fmt.Errorf("shard serves no fields")
	}
	for _, name := range names {
		h, err := r.Header(ctx, name)
		if err != nil {
			return err
		}
		if err := s.add(ctx, &field{header: h, planes: r.FieldClient(h), retryAfter: r.RetryAfter}); err != nil {
			return err
		}
	}
	return nil
}

// MountPlanes additionally exposes the internal /planes endpoints
// (shard.NodeHandler) over the server's fields, which makes it a shard
// node: planes are served through the same cache and plane source as the
// fields' refine sessions, so router traffic and node-local refine traffic
// deduplicate into the same cache entries and singleflight groups.
func (s *Server) MountPlanes() {
	nh := shard.NewNodeHandler(s, s.o)
	s.mux.Handle("/planes", nh)
	s.mux.Handle("/planes/", nh)
}

// PlaneField implements shard.NodeSource.
func (s *Server) PlaneField(name string) (shard.NodeField, bool) {
	f, ok := s.fields[name]
	if !ok {
		return shard.NodeField{}, false
	}
	return shard.CachedField(f.header, s.cache, f.planes), true
}

// PlaneFields implements shard.NodeSource.
func (s *Server) PlaneFields() []string { return s.names }
