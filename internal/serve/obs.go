// Request-scoped observability for the serving tier: W3C traceparent
// extraction/injection, a per-request span tree absorbed into the process
// tracer, one structured JSON access-log line per API request, and
// SLO good/total accounting for refines.

package serve

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"pmgard/internal/obs"
)

// accessRecord accumulates the per-request facts the access log line and
// the retained trace record report. Handlers deeper in the stack fill it in
// through the pointer the middleware stores in the request context.
type accessRecord struct {
	endpoint string
	field    string
	tol      float64
	bytes    int64
	hits     int64
	degraded bool
	// outcome is the failure-mode tag ("shed", "breaker_open", "deadline",
	// "client_gone", "draining", ...), empty for success.
	outcome string
}

type accessKey struct{}

// accessFrom returns the request's access record, nil outside the
// observability middleware (direct handler tests); setters must nil-check.
func accessFrom(ctx context.Context) *accessRecord {
	ar, _ := ctx.Value(accessKey{}).(*accessRecord)
	return ar
}

func (ar *accessRecord) setOutcome(tag string) {
	if ar != nil {
		ar.outcome = tag
	}
}

// statusWriter captures the status code a handler wrote so the middleware
// can log and trace it after the fact. An unset status means an implicit
// 200 from the first Write.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the first status code written.
func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

// Write records the implicit 200 of a body written without a status.
func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// infraPath reports whether a path is probe/scrape traffic that should stay
// out of the request trace store and access log: health probes fire every
// few seconds and would drown real requests in both.
func infraPath(path string) bool {
	switch path {
	case "/healthz", "/readyz", "/metrics":
		return true
	}
	return strings.HasPrefix(path, "/debug/")
}

// withObservability is the outermost middleware: it resolves the request's
// trace identity (inbound traceparent, or a freshly minted one), runs the
// request under a bounded per-request tracer whose root span parents every
// stage span recorded down the stack, injects the traceparent response
// header, and on completion absorbs the span tree into the process tracer,
// retains it for /debug/obs/trace, updates the refine SLO counters and
// emits exactly one access-log line.
//
// It wraps withRecovery, so a panicking handler still logs (as the 500 the
// recovery layer wrote) and still commits its spans.
func (s *Server) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if infraPath(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		tc, ok := obs.ParseTraceParent(r.Header.Get("traceparent"))
		if !ok {
			tc = obs.NewTraceContext()
		}
		// One bounded tracer per request keeps span trees isolated (and a
		// runaway request from evicting other requests' spans); drops still
		// surface in the shared obs.spans_dropped counter.
		tracer := obs.NewTracer(0)
		tracer.BindDroppedCounter(s.o.Counter("obs.spans_dropped"))
		endpoint := strings.TrimPrefix(r.URL.Path, "/")
		root := tracer.StartTrace("http."+endpoint, tc.TraceID)
		// The response names our root span as the parent, so a client that
		// continues the trace hangs its follow-up under this request.
		w.Header().Set("traceparent", obs.TraceContext{
			TraceID: tc.TraceID, SpanID: root.HexID(), Sampled: true,
		}.TraceParent())

		ar := &accessRecord{endpoint: endpoint}
		ctx := obs.ContextWithTrace(r.Context(), tc)
		ctx = obs.ContextWithSpan(ctx, root)
		ctx = context.WithValue(ctx, accessKey{}, ar)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			// Runs even when the handler panics (including ErrAbortHandler,
			// which withRecovery re-raises): the request is still traced and
			// logged before the panic continues to net/http.
			s.finishRequest(r, tc, root, tracer, ar, sw.status, start)
		}()
		next.ServeHTTP(sw, r.WithContext(ctx))
	})
}

// finishRequest commits one finished request: root span status, span-tree
// absorption and retention, SLO accounting, access log line.
func (s *Server) finishRequest(r *http.Request, tc obs.TraceContext, root *obs.Span, tracer *obs.Tracer, ar *accessRecord, status int, start time.Time) {
	// One clock reading ends both the access record and the root span. The
	// record started first, so the root — and every span under it — fits
	// inside the request it is the trace of.
	end := time.Now()
	dur := end.Sub(start)
	if status == 0 {
		// The handler never wrote: net/http sends 200 on return, or the
		// connection died mid-handler (ErrAbortHandler).
		status = http.StatusOK
	}
	root.SetAttr("status", status)
	switch {
	case status == http.StatusGatewayTimeout:
		root.SetStatus(obs.StatusDeadline)
	case status == statusClientClosedRequest:
		root.SetStatus(obs.StatusCancelled)
	case status >= 400:
		root.SetStatus(obs.StatusError)
	}
	root.EndAt(end)

	spans := tracer.Timeline()
	s.o.Trace.Absorb(spans)
	attrs := map[string]any{"status": status}
	if ar.field != "" {
		attrs["field"] = ar.field
	}
	if ar.tol > 0 {
		attrs["tolerance"] = ar.tol
	}
	if ar.outcome != "" {
		attrs["outcome"] = ar.outcome
	}
	s.o.Requests.Add(obs.RequestRecord{
		TraceID: tc.TraceID,
		Name:    ar.endpoint,
		Status:  status,
		StartNs: start.UnixNano(),
		DurNs:   dur.Nanoseconds(),
		Attrs:   attrs,
		Spans:   spans,
	})

	if ar.endpoint == "refine" && s.cfg.SLOLatency > 0 {
		// Availability and latency in one objective: a refine is good when
		// it succeeded within the latency target. Client disconnects (499)
		// are excluded entirely — the client gave up, the tier did not fail.
		if status != statusClientClosedRequest {
			s.o.Counter("serve.slo_total").Add(1)
			if status < 400 && dur <= s.cfg.SLOLatency {
				s.o.Counter("serve.slo_good").Add(1)
			}
		}
	}

	if s.logger != nil {
		level := slog.LevelInfo
		if status >= 500 {
			level = slog.LevelWarn
		}
		s.logger.LogAttrs(context.Background(), level, "request",
			slog.String("trace_id", tc.TraceID),
			slog.String("method", r.Method),
			slog.String("endpoint", ar.endpoint),
			slog.String("field", ar.field),
			slog.Float64("tolerance", ar.tol),
			slog.Int("status", status),
			slog.Int64("bytes_fetched", ar.bytes),
			slog.Int64("cache_hits", ar.hits),
			slog.Bool("degraded", ar.degraded),
			slog.String("outcome", ar.outcome),
			slog.Float64("duration_seconds", dur.Seconds()),
		)
	}
}
