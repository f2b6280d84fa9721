package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
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
// on the map's ring and fetches them from node /planes endpoints — each
// level's missing planes as one run per node — with per-node retry/backoff
// and circuit breaking, failing over to the next replica when a node is
// down. Its FieldClient implements servecache.Source, so
// core.NewSharedSession over it gives the router's shared cache cross-node
// singleflight: concurrent sessions missing the same plane trigger exactly
// one network fetch.
type Router struct {
	m        *Map
	client   *http.Client
	o        *obs.Obs
	breakers []*resilience.Breaker // per node, nil when disabled
	reads    []*obs.Counter        // shard.node_reads.<name>: answered plane requests, per node
	planes   []*obs.Counter        // shard.node_planes.<name>: planes those requests served, per node
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
		planes:   make([]*obs.Counter, len(cfg.Map.Nodes)),
		failover: cfg.Obs.Counter("shard.replica_failover"),
	}
	for i, n := range cfg.Map.Nodes {
		r.reads[i] = cfg.Obs.Counter("shard.node_reads." + n.Name)
		r.planes[i] = cfg.Obs.Counter("shard.node_planes." + n.Name)
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

// do issues one GET against node n's API and returns the response on 200;
// the caller reads and closes its body. Non-200 statuses and transport
// failures map to storage fault classes: 400/404/410 wrap
// storage.ErrPermanent, everything else is transient. The caller's trace
// context propagates as a traceparent header, parented at the current span,
// so the node's span tree hangs off the router's.
func (r *Router) do(ctx context.Context, n Node, path, query string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+path+"?"+query, nil)
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
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	// The error body is the node's JSON error document; carry its message
	// so the router's error names the root cause.
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

// readBody reads a 200 response's body, at most limit bytes of it: a node
// cannot make the router hold more than the response it was asked for, and
// a longer body is storage.ErrCorrupt. A declared Content-Length above the
// limit is refused before a byte is read, one within it is read into one
// allocation of exactly that size; only a response without one (the JSON
// documents) is read through a limit+1 reader.
func readBody(n Node, path string, resp *http.Response, limit int) ([]byte, error) {
	if resp.ContentLength > int64(limit) {
		return nil, fmt.Errorf("shard: node %s: %s body of %d bytes exceeds %d: %w", n.Name, path, resp.ContentLength, limit, storage.ErrCorrupt)
	}
	var body []byte
	var err error
	if resp.ContentLength >= 0 {
		body = make([]byte, resp.ContentLength)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(io.LimitReader(resp.Body, int64(limit)+1))
	}
	if err != nil {
		return nil, fmt.Errorf("shard: node %s: read body: %w: %w", n.Name, storage.ErrTransient, err)
	}
	if len(body) > limit {
		return nil, fmt.Errorf("shard: node %s: %s body exceeds %d bytes: %w", n.Name, path, limit, storage.ErrCorrupt)
	}
	return body, nil
}

// get fetches one of node n's JSON documents, bounded by maxDocBytes.
func (r *Router) get(ctx context.Context, n Node, path string, query url.Values) ([]byte, error) {
	resp, err := r.do(ctx, n, path, query.Encode())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return readBody(n, path, resp, maxDocBytes)
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
		body, err := r.get(ctx, n, "/planes/fields", url.Values{})
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
	var h *core.Header
	err := r.anyNode(ctx, func(n Node) error {
		body, err := r.get(ctx, n, "/planes/header", url.Values{"field": {field}})
		if err != nil {
			return err
		}
		h, err = core.ParseHeader(body)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("shard: header %s: %w", field, err)
	}
	return h, nil
}

// FieldClient returns the plane source serving field h over the shard, the
// remote counterpart of a core.PlaneStore.
func (r *Router) FieldClient(h *core.Header) *FieldClient {
	fc := &FieldClient{r: r, h: h, chains: make([]storage.RunSource, len(r.m.Nodes))}
	for i, n := range r.m.Nodes {
		// Every layer Guard adds forwards Run, and with none it returns the
		// source itself, so the chain over a RunSource is one.
		fc.chains[i] = resilience.Guard(&httpPlaneSource{r: r, node: n, h: h}, nodeRetry, r.breakers[i], r.o).(storage.RunSource)
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

// Segment implements storage.SegmentSource: one plane is the run of one.
func (s *httpPlaneSource) Segment(ctx context.Context, level, plane int) ([]byte, error) {
	return s.Run(ctx, level, []int{plane})
}

// Run implements storage.RunSource: one GET /planes for the whole run,
// answered with the bitsets of the longest prefix the node could serve. The
// body must be exactly what its X-Shard-Planes and the header's RawPlaneSize
// say — a whole number k of planes, 1 ≤ k ≤ len(planes), declared up front
// in Content-Length — and is read into one allocation of that size; anything
// else is storage.ErrCorrupt before a byte of it is held.
func (s *httpPlaneSource) Run(ctx context.Context, level int, planes []int) ([]byte, error) {
	if level < 0 || level >= len(s.h.Levels) {
		return nil, fmt.Errorf("shard: level %d out of range [0,%d): %w", level, len(s.h.Levels), storage.ErrPermanent)
	}
	raw := s.h.Levels[level].RawPlaneSize
	if raw <= 0 || len(planes) == 0 || len(planes) > MaxRunBytes/raw {
		return nil, fmt.Errorf("shard: run of %d planes of %d bytes on level %d cannot be asked for: %w", len(planes), raw, level, storage.ErrPermanent)
	}
	query := make([]byte, 0, 64+4*len(planes))
	query = append(query, "field="...)
	query = append(query, url.QueryEscape(s.h.FieldName)...)
	query = append(query, "&level="...)
	query = strconv.AppendInt(query, int64(level), 10)
	query = append(query, "&plane="...)
	for i, k := range planes {
		if i > 0 {
			query = append(query, ',')
		}
		query = strconv.AppendInt(query, int64(k), 10)
	}
	resp, err := s.r.do(ctx, s.node, "/planes", string(query))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	served, err := strconv.Atoi(resp.Header.Get(planesHeader))
	if err != nil || served < 1 || served > len(planes) || resp.ContentLength != int64(served)*int64(raw) {
		return nil, fmt.Errorf("shard: node %s answered a run of %d planes of %d bytes with %s %q and %d bytes: %w",
			s.node.Name, len(planes), raw, planesHeader, resp.Header.Get(planesHeader), resp.ContentLength, storage.ErrCorrupt)
	}
	return readBody(s.node, "/planes", resp, served*raw)
}

// FieldClient serves one field's planes over the shard with replica
// failover. It is safe for concurrent use.
type FieldClient struct {
	r *Router
	h *core.Header
	// chains[i] is node i's resilient read chain (breaker over retries over
	// HTTP) for this field.
	chains []storage.RunSource
}

// FetchPlanes implements servecache.Source: it groups the run by each
// plane's next replica and asks each node for its planes in one request, so
// failure-free traffic is one request per level and node. Every plane ends
// with its own verdict:
//
//   - a node answers with the longest prefix of its run it could serve; the
//     remainder is asked for again, and an error speaks for the remainder's
//     first plane only.
//   - a permanent error (410: the plane is lost on that node) moves that one
//     plane to its next replica, one shard.replica_failover; the planes
//     around it stay where they are.
//   - any other error — the node's retry budget burned, its breaker open —
//     puts the node out of this call: every plane still due from it moves
//     on, one shard.replica_failover each, and nothing it already served is
//     fetched again.
//   - context cancellation aborts immediately (the caller is gone —
//     hammering more replicas helps nobody).
//
// When every replica of a plane fails, a permanent verdict from any of them
// wins over transient ones, so the session degrades around genuinely lost
// planes instead of erroring on a replica that also happened to be down.
//
// The payload count of a plane is the manifest's compressed size for it —
// identical to what a local store fetch would account — and every bitset is
// exactly the header's RawPlaneSize, so a truncated or mislabeled node
// response surfaces as corruption, never as a silently wrong
// reconstruction.
func (fc *FieldClient) FetchPlanes(ctx context.Context, run servecache.Run) []servecache.Plane {
	n := len(run.Planes)
	out := make([]servecache.Plane, n)
	// replicas[i] is what is left of plane i's replica list, next first; a
	// plane is settled — out[i] is its verdict — once the list is nil.
	replicas := make([][]int, n)
	if run.Level < 0 || run.Level >= len(fc.h.Levels) {
		for i := range out {
			out[i].Err = fmt.Errorf("shard: level %d out of range [0,%d): %w", run.Level, len(fc.h.Levels), storage.ErrPermanent)
		}
		return out
	}
	lm := &fc.h.Levels[run.Level]
	for i, k := range run.Planes {
		if k < 0 || k >= fc.h.Planes || k >= len(lm.PlaneSizes) {
			out[i].Err = fmt.Errorf("shard: plane (%d,%d) out of range: %w", run.Level, k, storage.ErrPermanent)
			continue
		}
		replicas[i] = fc.r.m.Replicas(Key{Codec: run.Codec, Field: run.Field, Level: run.Level, Plane: k})
	}
	// fail moves plane i past the replica that just failed it with err;
	// failed[i] counts the replicas that did.
	failed := make([]int, n)
	fail := func(i int, err error) {
		if out[i].Err == nil || storage.Classify(err) == storage.FaultPermanent || storage.Classify(out[i].Err) != storage.FaultPermanent {
			out[i].Err = err
		}
		failed[i]++
		if replicas[i] = replicas[i][1:]; len(replicas[i]) > 0 {
			fc.r.failover.Add(1)
		} else {
			replicas[i] = nil
		}
	}
	down := make([]error, len(fc.chains)) // nodes out of this call, and why
	var group, planes []int
	for {
		// The first unsettled plane names the node to ask; every unsettled
		// plane due from that node next rides along, up to the response cap.
		group, planes = group[:0], planes[:0]
		node := -1
		for i, reps := range replicas {
			if reps == nil || node >= 0 && reps[0] != node {
				continue
			}
			node = reps[0]
			group, planes = append(group, i), append(planes, run.Planes[i])
		}
		if node < 0 {
			return out
		}
		if err := down[node]; err != nil {
			for _, i := range group {
				fail(i, err)
			}
			continue
		}
		raw := lm.RawPlaneSize
		if raw > 0 && len(group) > MaxRunBytes/raw {
			// Split to stay under the response cap (a single plane above it
			// is Run's to refuse).
			most := max(1, MaxRunBytes/raw)
			group, planes = group[:most], planes[:most]
		}
		body, err := fc.fetchRun(ctx, node, run.Level, planes, failed[group[0]])
		switch {
		case err == nil:
			// Run vouches for a whole number of planes, at least one.
			served := len(body) / raw
			fc.r.reads[node].Add(1)
			fc.r.planes[node].Add(int64(served))
			for j := 0; j < served; j++ {
				i := group[j]
				out[i] = servecache.Plane{Raw: body[j*raw : (j+1)*raw : (j+1)*raw], Payload: lm.PlaneSizes[run.Planes[i]]}
				replicas[i] = nil
			}
		case ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
			for i, reps := range replicas {
				if reps != nil {
					out[i].Err, replicas[i] = err, nil
				}
			}
			return out
		case storage.Classify(err) == storage.FaultPermanent:
			fail(group[0], err)
		default:
			down[node] = err
		}
	}
}

// fetchRun asks node for planes of level through its resilient chain, under
// one shard.fetch span; failovers is how many replicas failed the run's
// first plane before.
func (fc *FieldClient) fetchRun(ctx context.Context, node, level int, planes []int, failovers int) ([]byte, error) {
	sp := obs.SpanFromContext(ctx).Child("shard.fetch")
	defer sp.End()
	ctx = obs.ContextWithSpan(ctx, sp)
	body, err := fc.chains[node].Run(ctx, level, planes)
	if sp != nil {
		sp.SetAttr("level", level)
		sp.SetAttr("first", planes[0])
		sp.SetAttr("planes", len(planes))
		sp.SetAttr("node", fc.r.m.Nodes[node].Name)
		if failovers > 0 {
			sp.SetAttr("failovers", failovers)
		}
		sp.Fail(err)
	}
	return body, err
}
