package telemetry

import (
	"fmt"
	"testing"
)

// TestTracerTail: the flight-recorder tap returns the most recent n
// events in emission order, the whole buffer when n is zero or oversized,
// and respects the ring's rotation.
func TestTracerTail(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 12; i++ { // rotates 4 out
		tr.Emit(Record{Name: EvRespawn, Detail: fmt.Sprintf("e%d", i)})
	}
	tail := tr.Tail(3)
	if len(tail) != 3 {
		t.Fatalf("Tail(3) returned %d events", len(tail))
	}
	for i, want := range []string{"e9", "e10", "e11"} {
		if tail[i].Detail != want {
			t.Fatalf("tail[%d]=%q, want %q", i, tail[i].Detail, want)
		}
	}
	if got := tr.Tail(0); len(got) != 8 {
		t.Fatalf("Tail(0) returned %d events, want full ring 8", len(got))
	}
	if got := tr.Tail(100); len(got) != 8 || got[0].Detail != "e4" {
		t.Fatalf("oversized Tail = %d events starting %q", len(got), got[0].Detail)
	}
}

// TestSpanTracerTail: once EnableSpans turns span recording on, spans
// share the points' ring, and Tail returns both kinds in stream order.
func TestSpanTracerTail(t *testing.T) {
	tel := NewWithTraceCap(4)
	tel.Emit(Record{Name: EvTranslate, Detail: "before"})
	tel.StartSpan("t", "dropped").End() // spans still off
	st := tel.EnableSpans(8)
	if st != tel.Trace || st.Cap() != 8 {
		t.Fatalf("EnableSpans returned %p cap %d, want the tracer %p cap 8", st, st.Cap(), tel.Trace)
	}
	for i := 0; i < 5; i++ {
		sp := st.StartSpan("t", fmt.Sprintf("s%d", i))
		tel.Emit(Record{Name: EvPolicy, Detail: fmt.Sprintf("p%d", i)})
		sp.End()
	}
	tail := st.Tail(2)
	if len(tail) != 2 || tail[0].Detail != "p4" || tail[1].Name != "s4" || tail[1].Kind != KindSpan {
		t.Fatalf("tail: %+v", tail)
	}
	all := st.Tail(0)
	if len(all) != 8 || all[0].Detail != "p1" {
		t.Fatalf("Tail(0) = %d records starting %+v, want 8 starting p1", len(all), all[0])
	}
	if got := len(st.Spans()); got != 4 {
		t.Fatalf("Spans() = %d, want the 4 buffered spans", got)
	}
	if st.Recorded() != 11 {
		t.Fatalf("recorded = %d, want 11", st.Recorded())
	}
}
