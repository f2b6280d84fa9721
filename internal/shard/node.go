package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

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
	// Fetch materializes the decompressed bitset of one plane. It returns
	// the bitset, the compressed payload bytes the plane's original fetch
	// moved (for the router's per-session byte accounting), and an error.
	// Errors classifying as storage.FaultPermanent surface to routers as
	// 410 so their sessions degrade instead of retrying.
	Fetch func(ctx context.Context, level, plane int) ([]byte, int64, error)
}

// CachedField returns the NodeField serving h's planes from src through
// cache, under the header's PlaneKey namespace — the cache entries and
// singleflight groups core.NewSharedSession(h, src, cache) fills, so a
// node's /planes traffic and its local refine sessions share them.
func CachedField(h *core.Header, cache *servecache.Cache, src servecache.Source) NodeField {
	tmpl := h.PlaneKey(0, 0)
	return NodeField{
		Header: h,
		Fetch: func(ctx context.Context, level, plane int) ([]byte, int64, error) {
			key := tmpl
			key.Level, key.Plane = level, plane
			raw, payload, _, err := cache.Get(ctx, key, src)
			return raw, payload, err
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

// payloadHeader is the response header carrying the compressed payload
// size a plane's fetch moved, so routers can cross-check their
// manifest-derived accounting against the node's.
const payloadHeader = "X-Shard-Payload"

// NodeHandler is the node-side /planes HTTP surface of the shard tier:
//
//	GET /planes?field=F&level=L&plane=K  — decompressed plane bitset
//	GET /planes/header?field=F           — JSON artifact header
//	GET /planes/fields                   — JSON {"fields": [...]}
//
// Plane responses are raw octet-stream bitsets (no framing — the router
// validates length against the header's RawPlaneSize); errors are the
// serving tier's JSON error document with statuses routers map back onto
// storage fault classes: 400/404/410 are permanent, everything else is
// transient.
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
		n.handleHeader(w, r)
	case "/planes/fields":
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"fields": n.src.PlaneFields()})
	default:
		n.failNode(w, http.StatusNotFound, fmt.Errorf("shard: no such endpoint %q", r.URL.Path))
	}
}

// lookupField resolves the field query parameter against the node source.
func (n *NodeHandler) lookupField(w http.ResponseWriter, r *http.Request) (NodeField, bool) {
	name := r.URL.Query().Get("field")
	f, ok := n.src.PlaneField(name)
	if !ok {
		n.failNode(w, http.StatusNotFound, fmt.Errorf("shard: unknown field %q", name))
		return NodeField{}, false
	}
	return f, true
}

func (n *NodeHandler) handleHeader(w http.ResponseWriter, r *http.Request) {
	f, ok := n.lookupField(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(f.Header); err != nil {
		n.errors.Add(1)
	}
}

func (n *NodeHandler) handlePlane(w http.ResponseWriter, r *http.Request) {
	f, ok := n.lookupField(w, r)
	if !ok {
		return
	}
	level, err := strconv.Atoi(r.URL.Query().Get("level"))
	if err != nil {
		n.failNode(w, http.StatusBadRequest, fmt.Errorf("shard: bad level %q", r.URL.Query().Get("level")))
		return
	}
	plane, err := strconv.Atoi(r.URL.Query().Get("plane"))
	if err != nil {
		n.failNode(w, http.StatusBadRequest, fmt.Errorf("shard: bad plane %q", r.URL.Query().Get("plane")))
		return
	}
	if level < 0 || level >= len(f.Header.Levels) || plane < 0 || plane >= f.Header.Planes {
		n.failNode(w, http.StatusBadRequest,
			fmt.Errorf("shard: plane (%d,%d) out of range", level, plane))
		return
	}
	raw, payload, err := f.Fetch(r.Context(), level, plane)
	if err != nil {
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
	n.reads.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(payloadHeader, strconv.FormatInt(payload, 10))
	w.Write(raw)
}
