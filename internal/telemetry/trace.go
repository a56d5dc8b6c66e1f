package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// One trace stream carries everything the VM reports on its timeline:
// point events (a translation committed, a security event, a kill) and,
// when span recording is on, completed spans (a migration and each of
// its phases, a translation, an experiment cell). Both are Records in
// one bounded ring, fanned out to one set of sinks and written as one
// JSONL schema; the Kind field tells them apart.

// Record kinds.
const (
	KindSpan  = "span"
	KindEvent = "event"
)

// The point events emitted across the VM, by Record.Name.
const (
	// EvTranslate fires when a translation unit is committed (Addr is the
	// source block, CostUS the translation latency).
	EvTranslate = "translate"
	// EvCacheFlush fires when a code cache is flushed wholesale (Detail
	// records the number of evicted units).
	EvCacheFlush = "cache-flush"
	// EvRATMiss fires when a return misses the Return Address Table and
	// traps to the VM (Addr is the source return address).
	EvRATMiss = "rat-miss"
	// EvSecurity fires on a code-cache-miss security event (Addr is the
	// raw, pre-validation target of the suspect transfer).
	EvSecurity = "security-event"
	// EvPolicy records a policy decision (Detail: e.g. "security-migrate",
	// "stay", "phase-migration-request").
	EvPolicy = "policy"
	// EvMigrateBegin fires when a cross-ISA migration is attempted (ISA is
	// the source, Addr the resume point).
	EvMigrateBegin = "migrate-begin"
	// EvMigrateEnd fires when the attempt concludes (ISA is the target on
	// success, CostUS the modeled cost; Detail carries the refusal reason
	// otherwise).
	EvMigrateEnd = "migrate-end"
	// EvKill fires when the security policy terminates the process.
	EvKill = "kill"
	// EvRespawn fires when a crashed worker is re-spawned with fresh
	// randomization (paper §5.3).
	EvRespawn = "respawn"
	// EvPhase fires at a workload progress boundary in the timing model
	// (DurCycles is the cycles accumulated in the closing phase).
	EvPhase = "phase"
)

// Record is one trace record: a completed span, or a point event, which
// is a record of zero wall-clock duration. Every record carries two time
// domains —
//
//   - wall clock: nanoseconds from the tracer's epoch on the host
//     monotonic clock, measuring what the simulation itself costs, and
//   - guest cycles: the modeled cycle counter of the traced guest
//     (spans only), measuring what the traced program experiences,
//
// plus an optional modeled cost in microseconds (the Figure 12 cost model
// lives in modeled time, not in either clock).
type Record struct {
	// Kind is KindSpan or KindEvent.
	Kind string `json:"kind"`
	// ID is unique within the tracer; ParentID is 0 for roots and points.
	ID       uint64 `json:"id"`
	ParentID uint64 `json:"parent,omitempty"`
	// Name is the span's operation ("migrate", "transform", "translate")
	// or the point event's type (EvTranslate, EvSecurity, ...).
	Name string `json:"name"`
	// Track groups spans onto one timeline row in exports: typically the
	// subsystem ("migrate", "dbt", "machine", "experiments").
	Track string `json:"track,omitempty"`
	// ISA optionally records the ISA the record concerns.
	ISA string `json:"isa,omitempty"`
	// Addr is a point event's guest address (block, resume point, target).
	Addr uint32 `json:"addr,omitempty"`
	// StartNS/DurNS are the wall-clock start offset from the tracer's
	// epoch and the duration (always 0 for points), in nanoseconds.
	StartNS int64 `json:"start_ns"`
	DurNS   int64 `json:"dur_ns"`
	// StartCycles/DurCycles are the guest-cycle-domain start and duration,
	// taken from the tracer's cycle source (0 when no source is attached).
	StartCycles float64 `json:"start_cycles,omitempty"`
	DurCycles   float64 `json:"dur_cycles,omitempty"`
	// CostUS is the modeled cost in microseconds attributed to the record
	// (a migration phase's share, a translation's latency).
	CostUS float64 `json:"cost_us,omitempty"`
	// Detail carries record-specific context (refusal reason, unit size...).
	Detail string `json:"detail,omitempty"`
}

// Sink receives every record as it is recorded.
type Sink interface {
	Emit(Record)
}

// Ring capacities: DefaultTraceCap for a points-only tracer, and
// DefaultSpanCap once span recording shares the ring.
const (
	DefaultTraceCap = 4096
	DefaultSpanCap  = 8192
)

// Tracer records trace records into a bounded ring and fans them out to
// sinks. Recording happens on VM trap paths and phase boundaries, never
// per instruction, so a mutex is cheap enough; starting a span is
// lock-free (an atomic ID allocation and a clock read).
//
// Span recording is a switch on the tracer: a Telemetry's tracer starts
// with it off (EnableSpans turns it on), and StartSpan then returns the
// inert zero Span, so instrumented hot paths cost a nil check and zero
// allocations. A nil *Tracer is valid and records nothing.
type Tracer struct {
	epoch time.Time
	seq   atomic.Uint64
	spans atomic.Bool

	mu sync.Mutex
	// cycles, when non-nil, supplies the guest-cycle domain. It must be
	// safe to call from the tracing goroutine (machine step counters and
	// the perf model both are: they are only written between instructions
	// on the owning goroutine, and spans on other goroutines tolerate the
	// resulting slight skew).
	cycles func() float64
	ring   []Record
	next   int // overwrite position once the ring is full
	cap    int
	total  uint64
	sinks  []Sink
}

// NewTracer returns a tracer keeping the last capacity records (<= 0
// selects DefaultTraceCap), with span recording on.
func NewTracer(capacity int) *Tracer {
	t := newTracer(capacity)
	t.spans.Store(true)
	return t
}

func newTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{epoch: time.Now(), cap: capacity}
}

// SpanTracer is the tracer's former name; perfbench needs it.
type SpanTracer = Tracer

// SpanEvent is the record's former name; perfbench needs it.
type SpanEvent = Record

// NewSpanTracer is NewTracer's former name; perfbench needs it.
func NewSpanTracer(capacity int) *Tracer { return NewTracer(capacity) }

// enableSpans turns span recording on and resizes the ring to capacity
// (<= 0 selects DefaultSpanCap), keeping the most recent records.
func (t *Tracer) enableSpans(capacity int) {
	if capacity <= 0 {
		capacity = DefaultSpanCap
	}
	t.mu.Lock()
	recs := t.recordsLocked()
	if len(recs) > capacity {
		recs = recs[len(recs)-capacity:]
	}
	t.ring, t.next, t.cap = recs, 0, capacity
	t.mu.Unlock()
	t.spans.Store(true)
}

// SetCycleSource attaches the guest-cycle domain source. Pass nil to
// detach; spans then record zero cycle durations.
func (t *Tracer) SetCycleSource(f func() float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cycles = f
	t.mu.Unlock()
}

// AddSink attaches a sink; it receives records from now on.
func (t *Tracer) AddSink(s Sink) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.sinks = append(t.sinks, s)
	t.mu.Unlock()
}

// Emit records a point event, stamping its kind, ID and wall-clock start.
func (t *Tracer) Emit(r Record) {
	if t == nil {
		return
	}
	r.Kind = KindEvent
	r.ID = t.seq.Add(1)
	r.StartNS = int64(time.Since(t.epoch))
	t.record(r)
}

func (t *Tracer) record(r Record) {
	t.mu.Lock()
	t.total++
	if len(t.ring) < t.cap {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.next] = r
		t.next = (t.next + 1) % t.cap
	}
	sinks := t.sinks
	t.mu.Unlock()
	for _, s := range sinks {
		s.Emit(r)
	}
}

// Cap returns the ring capacity.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cap
}

// Recorded returns the total number of records (including any that have
// rotated out of the ring).
func (t *Tracer) Recorded() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Records returns the buffered records in recording order.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recordsLocked()
}

func (t *Tracer) recordsLocked() []Record {
	out := make([]Record, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	return append(out, t.ring[:t.next]...)
}

// Tail returns the most recent n buffered records in recording order
// (all of them when n <= 0 or exceeds the buffer). It is the
// flight-recorder tap: an incident bundle wants the last few dozen
// records, not a copy of the whole ring.
func (t *Tracer) Tail(n int) []Record {
	recs := t.Records()
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	return recs
}

// Spans returns the buffered span records, without points; perfbench
// needs it.
func (t *Tracer) Spans() []Record {
	var out []Record
	for _, r := range t.Records() {
		if r.Kind == KindSpan {
			out = append(out, r)
		}
	}
	return out
}

// JSONLSink writes each record as one JSON object per line.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   uint64
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (s *JSONLSink) Emit(r Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(r)
	if s.err == nil {
		s.n++
	}
}

// Written returns the number of records successfully written.
func (s *JSONLSink) Written() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ReadJSONL parses a JSONL trace stream (one Record per line, as JSONLSink
// writes it), skipping blank lines. A final line that fails to parse is
// the usual signature of a trace cut mid-write (the writing process was
// killed): it is dropped and its line number returned as cut. An
// unparsable line followed by more data is corruption, and an error.
func ReadJSONL(r io.Reader) (recs []Record, cut int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var bad error
	for line := 1; sc.Scan(); line++ {
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		if bad != nil {
			return nil, 0, bad
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			bad, cut = fmt.Errorf("line %d: %w", line, err), line
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return recs, cut, nil
}
