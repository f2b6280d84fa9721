package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"pmgard/internal/core"
	"pmgard/internal/grid"
	"pmgard/internal/obs"
	"pmgard/internal/resilience"
)

// handleReady is the readiness probe: 200 only when every field's first
// segment was readable when it was registered and the server is not
// draining. Distinct from /healthz, which only says the process is alive —
// a load balancer should route on /readyz and page on /healthz.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
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
func (s *Server) lookup(r *http.Request) (*field, string, error) {
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

func (s *Server) writeJSON(w http.ResponseWriter, v any) {
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

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.failDetail(w, code, err, "")
}

// failDetail writes a JSON error body with the given status and detail tag.
// 503s carry Retry-After so well-behaved clients back off instead of
// hammering an overloaded or draining server; callers that know how long
// the condition will last (failRefine) set the header first and the
// 1-second default only fills in when they have not.
func (s *Server) failDetail(w http.ResponseWriter, code int, err error, detail string) {
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

func (s *Server) handleFields(w http.ResponseWriter, _ *http.Request) {
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

func (s *Server) handleOpen(w http.ResponseWriter, r *http.Request) {
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
	// Unreachable marks a tolerance below the quantization floor: every
	// plane was fetched and the bound still exceeds the tolerance.
	Unreachable    bool    `json:"unreachable,omitempty"`
	Checksum       string  `json:"checksum"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

// statusClientClosedRequest is the nginx-convention status for a request
// whose client went away before the response was ready.
const statusClientClosedRequest = 499

func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
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
	// The reconstruction is only checksummed, so its workspace goes back to
	// the pool once the handler returns.
	defer sess.Close()
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
	unreachable := deg == nil && !(plan.EstimatedError <= tol)
	if ar != nil {
		ar.degraded = deg != nil
		ar.unreachable = unreachable
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
		Unreachable:    unreachable,
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
// instead of a constant: an open breaker reports the cooldown remaining on
// the field being refined (field.retryAfter, whichever wiring built it),
// and shedding scales with queue pressure — each full MaxInflight-worth of
// queued refines adds a second, so a deeper backlog pushes retries further
// out.
func (s *Server) failRefine(w http.ResponseWriter, ar *accessRecord, fh *field, err error) {
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
		if wait := fh.retryAfter(); wait > 0 {
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
// planner's error comparisons into refining nothing or everything. A rel=
// tolerance is relative to the field's value range, so on a field whose
// range is zero (a constant field) it names no positive tolerance and is
// refused here, pointing to abs=, rather than failing in the planner.
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
		if !(h.ValueRange > 0) {
			return 0, fmt.Errorf("rel tolerance on field %q, whose value range is %v: a relative bound is zero there, ask with abs=", h.FieldName, h.ValueRange)
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

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.o.Counter("serve.requests").Add(1)
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", obs.PromContentType)
		s.o.Metrics.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.o.Metrics.WriteJSON(w)
}
