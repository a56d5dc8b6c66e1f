package telemetry

// Telemetry bundles one metrics registry and one tracer — the unit of
// observability a protected System carries. All methods are nil-safe so
// uninstrumented construction paths (a bare migrate.Engine in a test, say)
// need no guards.
//
// The tracer always records point events; span recording is strictly
// opt-in (EnableSpans), and instrumented hot paths pay only a nil check
// when it is off.
type Telemetry struct {
	Reg   *Registry
	Trace *Tracer
}

// New returns a fresh registry + tracer pair with the default ring size.
func New() *Telemetry { return NewWithTraceCap(DefaultTraceCap) }

// NewWithTraceCap returns a registry + tracer pair whose ring keeps the
// last capacity records (<= 0 selects DefaultTraceCap).
func NewWithTraceCap(capacity int) *Telemetry {
	return &Telemetry{Reg: NewRegistry(), Trace: newTracer(capacity)}
}

// PublishSeries is the nil-safe series exporter (see Registry.PublishSeries).
func (t *Telemetry) PublishSeries(prefix string, points []SeriesPoint) {
	if t == nil || t.Reg == nil {
		return
	}
	t.Reg.PublishSeries(prefix, points)
}

// EnableSpans turns on span recording on the tracer, resizing its ring to
// capacity records (<= 0 selects DefaultSpanCap), and returns the tracer.
// A nil receiver returns nil (which is itself a valid, inert tracer).
func (t *Telemetry) EnableSpans(capacity int) *Tracer {
	if t == nil || t.Trace == nil {
		return nil
	}
	t.Trace.enableSpans(capacity)
	return t.Trace
}

// StartSpan opens a root span on the tracer; with span recording off (or
// a nil receiver) it returns the inert zero Span.
func (t *Telemetry) StartSpan(track, name string) Span {
	if t == nil {
		return Span{}
	}
	return t.Trace.StartSpan(track, name)
}

// Emit records a point event; a nil receiver drops it.
func (t *Telemetry) Emit(r Record) {
	if t == nil {
		return
	}
	t.Trace.Emit(r)
}

// Snapshot returns the registry snapshot; a nil receiver yields an empty
// snapshot.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil || t.Reg == nil {
		return Snapshot{
			Counters:   map[string]uint64{},
			Gauges:     map[string]float64{},
			Histograms: map[string]HistSnapshot{},
		}
	}
	return t.Reg.Snapshot()
}

// Counter is a nil-safe registry accessor (returns a detached counter on a
// nil receiver so callers can increment unconditionally).
func (t *Telemetry) Counter(name string) *Counter {
	if t == nil || t.Reg == nil {
		return &Counter{}
	}
	return t.Reg.Counter(name)
}

// Gauge is the nil-safe gauge accessor.
func (t *Telemetry) Gauge(name string) *Gauge {
	if t == nil || t.Reg == nil {
		return &Gauge{}
	}
	return t.Reg.Gauge(name)
}

// Histogram is the nil-safe histogram accessor.
func (t *Telemetry) Histogram(name string) *Histogram {
	if t == nil || t.Reg == nil {
		return &Histogram{}
	}
	return t.Reg.Histogram(name)
}
