package telemetry

import "time"

// Spans record *intervals* on the trace stream where point events record
// instants: a migration is one parent span with child spans for each
// phase, a translation is one span per unit, an experiment cell is one
// span per (workload, config) pair. A span is recorded when it ends; a
// span that never ends records nothing.

// Span is one in-flight span. The zero Span (a nil tracer, or span
// recording off) is valid and inert: every method is a no-op behind a
// single nil check, so instrumentation sites need no enabled/disabled
// branches of their own. Span is a value type — starting a span allocates
// nothing beyond the ring slot its completion eventually overwrites.
type Span struct {
	tr          *Tracer
	id          uint64
	parent      uint64
	name        string
	track       string
	isa         string
	detail      string
	costUS      float64
	startNS     int64
	startCycles float64
}

// StartSpan opens a root span. On a nil tracer, or with span recording
// off, it returns the inert zero Span.
func (t *Tracer) StartSpan(track, name string) Span {
	if t == nil || !t.spans.Load() {
		return Span{}
	}
	return Span{
		tr:          t,
		id:          t.seq.Add(1),
		name:        name,
		track:       track,
		startNS:     int64(time.Since(t.epoch)),
		startCycles: t.readCycles(),
	}
}

func (t *Tracer) readCycles() float64 {
	t.mu.Lock()
	f := t.cycles
	t.mu.Unlock()
	if f == nil {
		return 0
	}
	return f()
}

// Active reports whether the span is recording (i.e. tracing is enabled).
func (s Span) Active() bool { return s.tr != nil }

// ID returns the span's record ID (0 when inert).
func (s Span) ID() uint64 { return s.id }

// StartChild opens a child span on the same tracer and track.
func (s Span) StartChild(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	c := s.tr.StartSpan(s.track, name)
	c.parent = s.id
	c.isa = s.isa
	return c
}

// SetISA tags the span with an ISA name.
func (s *Span) SetISA(isa string) {
	if s.tr != nil {
		s.isa = isa
	}
}

// SetDetail attaches span-specific context.
func (s *Span) SetDetail(detail string) {
	if s.tr != nil {
		s.detail = detail
	}
}

// SetCostUS attributes modeled cost (microseconds) to the span.
func (s *Span) SetCostUS(us float64) {
	if s.tr != nil {
		s.costUS = us
	}
}

// End completes the span, recording both domains' durations on the
// tracer. Ending the zero Span is a no-op.
func (s Span) End() {
	t := s.tr
	if t == nil {
		return
	}
	r := Record{
		Kind:        KindSpan,
		ID:          s.id,
		ParentID:    s.parent,
		Name:        s.name,
		Track:       s.track,
		ISA:         s.isa,
		StartNS:     s.startNS,
		DurNS:       max(0, int64(time.Since(t.epoch))-s.startNS),
		StartCycles: s.startCycles,
		DurCycles:   max(0, t.readCycles()-s.startCycles),
		CostUS:      s.costUS,
		Detail:      s.detail,
	}
	t.record(r)
}
