package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"pmgard/internal/core"
	"pmgard/internal/obs"
	"pmgard/internal/servecache"
	"pmgard/internal/storage"
)

// NodeField is one field exposed through a node's /planes endpoints: the
// artifact header (served JSON-marshaled at /planes/header so routers can
// plan and validate without local artifacts) and the fetch hook that
// materializes decompressed plane bitsets — CachedField's, outside tests.
type NodeField struct {
	// Header is the field's artifact header.
	Header *core.Header
	// Fetch materializes the decompressed bitsets of a run of planes of one
	// level and returns one verdict per plane, in run order: the bitset, the
	// compressed payload bytes the plane's original fetch moved (for the
	// router's per-session byte accounting), or an error. A first plane
	// whose error classifies as storage.FaultPermanent surfaces to routers
	// as 410 so their sessions degrade instead of retrying.
	Fetch func(ctx context.Context, level int, planes []int) []servecache.Plane
}

// CachedField returns the NodeField serving h's planes from src through
// cache, under the header's PlaneKey namespace — the cache entries and
// singleflight groups core.NewSharedSession(h, src, cache) fills, so a
// node's /planes traffic and its local refine sessions share them.
func CachedField(h *core.Header, cache *servecache.Cache, src servecache.Source) NodeField {
	tmpl := h.PlaneRun(0, nil)
	return NodeField{
		Header: h,
		Fetch: func(ctx context.Context, level int, planes []int) []servecache.Plane {
			run := tmpl
			run.Level, run.Planes = level, planes
			return cache.Get(ctx, run, src, nil)
		},
	}
}

// NodeSource resolves the fields a node handler serves; internal/serve's
// Server implements it over the fields added to it, and this package's
// tests substitute a fake.
type NodeSource interface {
	// PlaneField returns the named field's serving hooks; ok is false for
	// fields the node does not serve.
	PlaneField(name string) (f NodeField, ok bool)
	// PlaneFields lists the names of the fields the node serves, in
	// registration order.
	PlaneFields() []string
}

// Response headers of a 200 /planes answer: the compressed payload bytes
// the served planes' original fetches moved, so routers can cross-check
// their manifest-derived accounting against the node's, and how many planes
// of the requested run the body holds.
const (
	payloadHeader = "X-Shard-Payload"
	planesHeader  = "X-Shard-Planes"
)

// MaxRunBytes bounds the body of one /planes response: a node refuses a run
// whose bitsets would exceed it, and the router splits its runs to stay
// under it.
const MaxRunBytes = 64 << 20

// NodeHandler is the node-side /planes HTTP surface of the shard tier:
//
//	GET /planes?field=F&level=L&plane=K0,K1,…  — decompressed plane bitsets
//	GET /planes/header?field=F                 — JSON artifact header
//	GET /planes/fields                         — JSON {"fields": [...]}
//
// A plane request names a run: one or more distinct planes of one level, at
// most Header.Planes of them and at most MaxRunBytes of bitsets. Its 200
// response is the raw octet-stream bitsets of the longest prefix of the run
// the node could serve, back to back with no framing — every plane of a
// level is the header's RawPlaneSize bytes — with Content-Length set and the
// prefix length in X-Shard-Planes; the router re-asks for the remainder. A
// run of one plane is the one-plane request, answered with that plane's
// bytes. Errors are the serving tier's JSON error document and speak for
// the run's first plane only, with statuses routers map back onto storage
// fault classes: 400/404/410 are permanent, everything else is transient.
type NodeHandler struct {
	src    NodeSource
	o      *obs.Obs
	reads  *obs.Counter
	errors *obs.Counter
}

// NewNodeHandler returns a handler serving src's fields. o records
// shard.node.plane_reads and shard.node.plane_errors; it must be non-nil.
func NewNodeHandler(src NodeSource, o *obs.Obs) *NodeHandler {
	return &NodeHandler{
		src:    src,
		o:      o,
		reads:  o.Counter("shard.node.plane_reads"),
		errors: o.Counter("shard.node.plane_errors"),
	}
}

// nodeError is the JSON error body of the /planes endpoints, mirroring the
// serving tier's errorResponse shape.
type nodeError struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// failNode writes a JSON error document with the given status.
func (n *NodeHandler) failNode(w http.ResponseWriter, code int, err error) {
	n.errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(nodeError{Error: err.Error(), Status: code})
}

// ServeHTTP routes the /planes endpoints.
func (n *NodeHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/planes":
		n.handlePlane(w, r)
	case "/planes/header":
		if f, ok := n.lookupField(w, r.URL.Query().Get("field")); ok {
			n.writeJSON(w, f.Header)
		}
	case "/planes/fields":
		n.writeJSON(w, map[string]any{"fields": n.src.PlaneFields()})
	default:
		n.failNode(w, http.StatusNotFound, fmt.Errorf("shard: no such endpoint %q", r.URL.Path))
	}
}

// writeJSON answers 200 with doc as a JSON document.
func (n *NodeHandler) writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	if err := json.NewEncoder(w).Encode(doc); err != nil {
		n.errors.Add(1)
	}
}

// lookupField resolves a field name against the node source.
func (n *NodeHandler) lookupField(w http.ResponseWriter, name string) (NodeField, bool) {
	f, ok := n.src.PlaneField(name)
	if !ok {
		n.failNode(w, http.StatusNotFound, fmt.Errorf("shard: unknown field %q", name))
		return NodeField{}, false
	}
	return f, true
}

// parseRun parses a plane query value "K0,K1,…" into a run of at most limit
// distinct plane indexes in [0, limit).
func parseRun(s string, limit int) ([]int, error) {
	if n := strings.Count(s, ",") + 1; n > limit {
		return nil, fmt.Errorf("shard: run of %d planes, the field has %d", n, limit)
	}
	var planes []int
	seen := make([]bool, limit)
	for _, part := range strings.Split(s, ",") {
		k, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("shard: bad plane %q", part)
		}
		if k < 0 || k >= limit {
			return nil, fmt.Errorf("shard: plane %d out of range [0,%d)", k, limit)
		}
		if seen[k] {
			return nil, fmt.Errorf("shard: plane %d repeated", k)
		}
		seen[k] = true
		planes = append(planes, k)
	}
	return planes, nil
}

func (n *NodeHandler) handlePlane(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f, ok := n.lookupField(w, q.Get("field"))
	if !ok {
		return
	}
	level, err := strconv.Atoi(q.Get("level"))
	if err != nil {
		n.failNode(w, http.StatusBadRequest, fmt.Errorf("shard: bad level %q", q.Get("level")))
		return
	}
	if level < 0 || level >= len(f.Header.Levels) {
		n.failNode(w, http.StatusBadRequest, fmt.Errorf("shard: level %d out of range [0,%d)", level, len(f.Header.Levels)))
		return
	}
	planes, err := parseRun(q.Get("plane"), f.Header.Planes)
	if err != nil {
		n.failNode(w, http.StatusBadRequest, err)
		return
	}
	if size := int64(len(planes)) * int64(f.Header.Levels[level].RawPlaneSize); size > MaxRunBytes {
		n.failNode(w, http.StatusBadRequest, fmt.Errorf("shard: run of %d planes is %d bytes, above the %d-byte response limit", len(planes), size, int64(MaxRunBytes)))
		return
	}
	verdicts := f.Fetch(r.Context(), level, planes)
	// The response is the longest prefix served; the first plane's error
	// answers for a run that has none.
	served, size := 0, 0
	var payload int64
	for _, v := range verdicts {
		if v.Err != nil {
			break
		}
		served++
		size += len(v.Raw)
		payload += v.Payload
	}
	if served == 0 {
		err := fmt.Errorf("shard: no verdict on plane (%d,%d)", level, planes[0])
		if len(verdicts) > 0 {
			err = verdicts[0].Err
		}
		switch {
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The router hung up; nobody reads the response, but pick the
			// client-gone convention for the access log's sake.
			n.failNode(w, 499, err)
		case storage.Classify(err) == storage.FaultPermanent:
			// The data is authoritatively gone on this node: 410 tells the
			// router "stop retrying me", and after replica failover also
			// fails, its session degrades exactly as a local session would.
			n.failNode(w, http.StatusGone, err)
		default:
			n.failNode(w, http.StatusBadGateway, err)
		}
		return
	}
	n.reads.Add(int64(served))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(size))
	w.Header().Set(payloadHeader, strconv.FormatInt(payload, 10))
	w.Header().Set(planesHeader, strconv.Itoa(served))
	for _, v := range verdicts[:served] {
		w.Write(v.Raw)
	}
}
