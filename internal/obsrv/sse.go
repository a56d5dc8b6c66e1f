package obsrv

import (
	"sync"

	"hipstr/internal/telemetry"
)

// DefaultSubscriberBuffer is the per-subscriber event ring capacity.
const DefaultSubscriberBuffer = 1024

// EventHub fans trace records out to SSE subscribers. It implements
// telemetry.Sink; Emit runs synchronously on the VM's trap paths, so it
// must never block: each subscriber owns a bounded ring that drops its
// oldest events when a slow consumer falls behind, and wakeups use a
// non-blocking capacity-1 channel.
type EventHub struct {
	mu   sync.Mutex
	subs map[*Subscriber]struct{}
	cap  int
}

// NewEventHub returns a hub whose subscribers buffer up to capacity events
// (<= 0 selects DefaultSubscriberBuffer).
func NewEventHub(capacity int) *EventHub {
	if capacity <= 0 {
		capacity = DefaultSubscriberBuffer
	}
	return &EventHub{subs: make(map[*Subscriber]struct{}), cap: capacity}
}

// Emit implements telemetry.Sink.
func (h *EventHub) Emit(e telemetry.Record) {
	h.mu.Lock()
	for s := range h.subs {
		s.push(e)
	}
	h.mu.Unlock()
}

// Subscribe registers a new subscriber receiving events from now on.
func (h *EventHub) Subscribe() *Subscriber {
	s := &Subscriber{
		buf:    make([]telemetry.Record, h.cap),
		notify: make(chan struct{}, 1),
	}
	h.mu.Lock()
	h.subs[s] = struct{}{}
	h.mu.Unlock()
	return s
}

// Unsubscribe detaches s; its buffered events are discarded.
func (h *EventHub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	delete(h.subs, s)
	h.mu.Unlock()
}

// Subscriber is one SSE consumer's bounded event ring.
type Subscriber struct {
	mu      sync.Mutex
	buf     []telemetry.Record
	head    int // index of the oldest buffered event
	n       int // buffered event count
	dropped uint64
	notify  chan struct{}
}

func (s *Subscriber) push(e telemetry.Record) {
	s.mu.Lock()
	if s.n == len(s.buf) {
		// Ring full: overwrite the oldest (drop-oldest, never block).
		s.buf[s.head] = e
		s.head = (s.head + 1) % len(s.buf)
		s.dropped++
	} else {
		s.buf[(s.head+s.n)%len(s.buf)] = e
		s.n++
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Notify returns the wakeup channel: a receive means Drain may have work.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// Drain returns the buffered events in emission order and the number of
// events dropped since the previous Drain, clearing both.
func (s *Subscriber) Drain() ([]telemetry.Record, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 && s.dropped == 0 {
		return nil, 0
	}
	out := make([]telemetry.Record, s.n)
	for i := 0; i < s.n; i++ {
		out[i] = s.buf[(s.head+i)%len(s.buf)]
	}
	s.head, s.n = 0, 0
	d := s.dropped
	s.dropped = 0
	return out, d
}
