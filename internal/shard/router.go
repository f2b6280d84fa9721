package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"pmgard/internal/core"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Map is the static shard map; must be non-nil and finished (ParseMap
	// or LoadMap).
	Map *Map
	// Client issues the node HTTP requests; nil uses a default client
	// (per-request cancellation still applies through contexts).
	Client *http.Client
	// Breaker describes each node's circuit breaker; a FailureThreshold
	// below 1 means no breakers (resilience.BreakerConfig).
	Breaker resilience.BreakerConfig
	// Obs records the router metrics (shard.node_reads.<name>,
	// shard.replica_failover, per-node breaker gauges); must be non-nil.
	Obs *obs.Obs
}

// nodeRetry is the per-node retry policy: 2 attempts with 2ms..20ms
// equal-jitter backoff — deliberately tighter than
// storage.DefaultRetryPolicy, because a dead node should fail over to its
// replica in milliseconds, not burn the full single-store retry budget
// first.
var nodeRetry = storage.RetryPolicy{MaxAttempts: 2, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond}

// maxDocBytes caps the /planes/fields and /planes/header documents a node
// can make the router hold; a real header is a few KiB per level.
const maxDocBytes = 1 << 20

// Router is the router-side client of the shard tier: it places plane keys
// on the map's ring and fetches them from node /planes endpoints with
// per-node retry/backoff and circuit breaking, failing over to the next
// replica when a node is down. Its FieldClient implements
// servecache.Source, so core.NewSharedSession over it gives the router's
// shared cache cross-node singleflight: concurrent sessions missing the
// same plane trigger exactly one network fetch.
type Router struct {
	m        *Map
	client   *http.Client
	o        *obs.Obs
	breakers []*resilience.Breaker // per node, nil when disabled
	reads    []*obs.Counter        // shard.node_reads.<name>, per node
	failover *obs.Counter
}

// NewRouter returns a router over cfg.Map.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil || len(cfg.Map.Nodes) == 0 {
		return nil, fmt.Errorf("shard: router needs a non-empty map")
	}
	if cfg.Obs == nil {
		return nil, fmt.Errorf("shard: router needs an Obs")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	r := &Router{
		m:        cfg.Map,
		client:   client,
		o:        cfg.Obs,
		breakers: make([]*resilience.Breaker, len(cfg.Map.Nodes)),
		reads:    make([]*obs.Counter, len(cfg.Map.Nodes)),
		failover: cfg.Obs.Counter("shard.replica_failover"),
	}
	for i, n := range cfg.Map.Nodes {
		r.reads[i] = cfg.Obs.Counter("shard.node_reads." + n.Name)
		r.breakers[i] = resilience.NewBreaker(cfg.Breaker)
		r.breakers[i].Instrument(cfg.Obs, "node."+n.Name)
	}
	return r, nil
}

// RetryAfter returns the shortest cooldown remaining across the router's
// open node breakers — the soonest a refused read could succeed again — or
// 0 when no breaker is open. The serving tier derives 503 Retry-After
// headers from it.
func (r *Router) RetryAfter() time.Duration {
	var min time.Duration
	for _, b := range r.breakers {
		if d := b.RetryAfter(); d > 0 && (min == 0 || d < min) {
			min = d
		}
	}
	return min
}

// get issues one GET against node n's API and returns the body on 200,
// reading at most limit+1 bytes of it: a node cannot make the router hold
// more than the response it was asked for, and a longer body is
// storage.ErrCorrupt. Non-200 statuses and transport failures map to
// storage fault classes: 400/404/410 wrap storage.ErrPermanent, everything
// else is transient. The caller's trace context propagates as a
// traceparent header, parented at the current span, so the node's span
// tree hangs off the router's.
func (r *Router) get(ctx context.Context, n Node, path string, query url.Values, limit int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+path+"?"+query.Encode(), nil)
	if err != nil {
		return nil, fmt.Errorf("shard: node %s: %w: %w", n.Name, storage.ErrPermanent, err)
	}
	if tc, ok := obs.TraceFromContext(ctx); ok && tc.Valid() {
		if sp := obs.SpanFromContext(ctx); sp != nil {
			tc.SpanID = sp.HexID()
		}
		req.Header.Set("traceparent", tc.TraceParent())
	}
	resp, err := r.client.Do(req)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("shard: node %s: %w", n.Name, ctxErr)
		}
		return nil, fmt.Errorf("shard: node %s: %w: %w", n.Name, storage.ErrTransient, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The error body is the node's JSON error document; carry its
		// message so the router's error names the root cause.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var ne nodeError
		detail := string(msg)
		if json.Unmarshal(msg, &ne) == nil && ne.Error != "" {
			detail = ne.Error
		}
		class := storage.ErrTransient
		switch resp.StatusCode {
		case http.StatusBadRequest, http.StatusNotFound, http.StatusGone:
			class = storage.ErrPermanent
		}
		return nil, fmt.Errorf("shard: node %s: status %d: %w: %s", n.Name, resp.StatusCode, class, detail)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	if err != nil {
		return nil, fmt.Errorf("shard: node %s: read body: %w: %w", n.Name, storage.ErrTransient, err)
	}
	if len(body) > limit {
		return nil, fmt.Errorf("shard: node %s: %s body exceeds %d bytes: %w", n.Name, path, limit, storage.ErrCorrupt)
	}
	return body, nil
}

// anyNode runs fn against each node in map order until one succeeds,
// returning the last error when all fail. Discovery calls (field lists,
// headers) use it — placement does not apply to them.
func (r *Router) anyNode(ctx context.Context, fn func(n Node) error) error {
	var last error
	for _, n := range r.m.Nodes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := fn(n); err != nil {
			last = err
			continue
		}
		return nil
	}
	return last
}

// Fields lists the fields the shard serves, asking each node in map order
// until one answers.
func (r *Router) Fields(ctx context.Context) ([]string, error) {
	var out struct {
		Fields []string `json:"fields"`
	}
	err := r.anyNode(ctx, func(n Node) error {
		body, err := r.get(ctx, n, "/planes/fields", url.Values{}, maxDocBytes)
		if err != nil {
			return err
		}
		return json.Unmarshal(body, &out)
	})
	if err != nil {
		return nil, fmt.Errorf("shard: list fields: %w", err)
	}
	return out.Fields, nil
}

// Header fetches one field's artifact header from the shard, asking each
// node in map order until one answers.
func (r *Router) Header(ctx context.Context, field string) (*core.Header, error) {
	var h core.Header
	err := r.anyNode(ctx, func(n Node) error {
		body, err := r.get(ctx, n, "/planes/header", url.Values{"field": {field}}, maxDocBytes)
		if err != nil {
			return err
		}
		return json.Unmarshal(body, &h)
	})
	if err != nil {
		return nil, fmt.Errorf("shard: header %s: %w", field, err)
	}
	return &h, nil
}

// FieldClient returns the plane source serving field h over the shard, the
// remote counterpart of a core.PlaneStore.
func (r *Router) FieldClient(h *core.Header) *FieldClient {
	fc := &FieldClient{r: r, h: h, chains: make([]storage.SegmentSource, len(r.m.Nodes))}
	for i, n := range r.m.Nodes {
		fc.chains[i] = resilience.Guard(&httpPlaneSource{r: r, node: n, h: h}, nodeRetry, r.breakers[i], r.o)
	}
	return fc
}

// httpPlaneSource reads one field's decompressed planes from one node's
// /planes endpoint. It sits at the bottom of the per-node chain, under the
// retry layer and breaker.
type httpPlaneSource struct {
	r    *Router
	node Node
	h    *core.Header
}

// Segment implements storage.SegmentSource: it fetches one plane bitset
// over HTTP, bounded by the header's RawPlaneSize for the level.
func (s *httpPlaneSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	if level < 0 || level >= len(s.h.Levels) {
		return nil, fmt.Errorf("shard: level %d out of range [0,%d): %w", level, len(s.h.Levels), storage.ErrPermanent)
	}
	q := url.Values{
		"field": {s.h.FieldName},
		"level": {fmt.Sprint(level)},
		"plane": {fmt.Sprint(plane)},
	}
	return s.r.get(ctx, s.node, "/planes", q, s.h.Levels[level].RawPlaneSize)
}

// FieldClient serves one field's planes over the shard with replica
// failover. It is safe for concurrent use.
type FieldClient struct {
	r *Router
	h *core.Header
	// chains[i] is node i's resilient read chain (breaker over retries over
	// HTTP) for this field.
	chains []storage.SegmentSource
}

// FetchPlane implements servecache.Source: it walks the key's
// replicas in ring order, returning the first successful read. A replica
// failure with further replicas remaining counts one shard.replica_failover
// and moves on; context cancellation aborts immediately (the caller is
// gone — hammering more replicas helps nobody). When every replica fails,
// a permanent verdict from any of them wins over transient ones, so the
// session degrades around genuinely lost planes instead of erroring on a
// replica that also happened to be down.
//
// The returned payload count is the manifest's compressed size for the
// plane — identical to what a local store fetch would account — and the
// bitset length is validated against the header's RawPlaneSize, so a
// truncated or mislabeled node response surfaces as corruption, never as a
// silently wrong reconstruction.
func (fc *FieldClient) FetchPlane(ctx context.Context, key servecache.Key) ([]byte, int64, error) {
	sp := obs.SpanFromContext(ctx).Child("shard.fetch")
	defer sp.End()
	sp.SetAttr("level", key.Level)
	sp.SetAttr("plane", key.Plane)
	ctx = obs.ContextWithSpan(ctx, sp)
	replicas := fc.r.m.Replicas(Key{Codec: key.Codec, Field: key.Field, Level: key.Level, Plane: key.Plane})
	var permErr, lastErr error
	for i, n := range replicas {
		raw, err := fc.chains[n].Segment(ctx, key.Level, key.Plane)
		if err == nil {
			if want := fc.h.Levels[key.Level].RawPlaneSize; len(raw) != want {
				err = fmt.Errorf("shard: node %s plane (%d,%d) bitset is %d bytes, header says %d: %w",
					fc.r.m.Nodes[n].Name, key.Level, key.Plane, len(raw), want, storage.ErrCorrupt)
			} else {
				fc.r.reads[n].Add(1)
				sp.SetAttr("node", fc.r.m.Nodes[n].Name)
				if i > 0 {
					sp.SetAttr("failovers", i)
				}
				return raw, fc.h.Levels[key.Level].PlaneSizes[key.Plane], nil
			}
		}
		if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			sp.Fail(err)
			return nil, 0, err
		}
		if storage.Classify(err) == storage.FaultPermanent {
			permErr = err
		} else {
			lastErr = err
		}
		if i < len(replicas)-1 {
			fc.r.failover.Add(1)
		}
	}
	err := lastErr
	if permErr != nil {
		err = permErr
	}
	sp.Fail(err)
	return nil, 0, err
}
