package obs

// Obs bundles the two observability facilities a pipeline stage may use: a
// metrics registry and a span tracer. A nil *Obs (the default everywhere)
// disables both at the cost of one nil check per instrumented operation,
// which is what keeps the instrumented hot paths within benchmark noise
// when observability is off.
type Obs struct {
	// Metrics is the metrics registry; nil disables metrics.
	Metrics *Registry
	// Trace is the span tracer; nil disables tracing.
	Trace *Tracer
	// Requests retains finished request traces for /debug/obs (slowest
	// table and per-trace lookup); nil disables retention.
	Requests *TraceStore
}

// New returns an Obs with a fresh registry, a default-bounded tracer whose
// drops surface as the obs.spans_dropped counter, and a default-bounded
// request trace store.
func New() *Obs {
	o := &Obs{Metrics: NewRegistry(), Trace: NewTracer(0), Requests: NewTraceStore(0, 0)}
	o.Trace.BindDroppedCounter(o.Metrics.Counter("obs.spans_dropped"))
	return o
}

// Registry returns o's metrics registry, or a fresh private one when o or
// o.Metrics is nil. A long-lived component resolves its instruments from it
// once, in its constructor, so its Stats count exactly with no registry
// attached and read the very instruments a metrics snapshot reports when
// one is.
func (o *Obs) Registry() *Registry {
	if o == nil || o.Metrics == nil {
		return NewRegistry()
	}
	return o.Metrics
}

// Counter is a nil-safe shorthand for o.Metrics.Counter(name).
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge is a nil-safe shorthand for o.Metrics.Gauge(name).
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram is a nil-safe shorthand for o.Metrics.Histogram(name, bounds).
func (o *Obs) Histogram(name string, bounds []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name, bounds)
}

// Span is a nil-safe shorthand for o.Trace.Start(name, parent).
func (o *Obs) Span(name string, parent *Span) *Span {
	if o == nil {
		return nil
	}
	return o.Trace.Start(name, parent)
}
