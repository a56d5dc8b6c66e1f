package telemetry

import (
	"bytes"
	"testing"
)

func TestTracerRingOrder(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Record{Name: EvSecurity, Addr: uint32(i)})
	}
	evs := tr.Records()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, e := range evs {
		if want := uint64(7 + i); e.ID != want || e.Kind != KindEvent {
			t.Fatalf("event %d has id %d kind %q, want %d %q", i, e.ID, e.Kind, want, KindEvent)
		}
		if e.Addr != uint32(6+i) {
			t.Fatalf("event %d addr %d, want %d", i, e.Addr, 6+i)
		}
	}
	if tr.Recorded() != 10 {
		t.Fatalf("recorded = %d, want 10", tr.Recorded())
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(0)
	sink := NewJSONLSink(&buf)
	tr.AddSink(sink)
	tr.Emit(Record{Name: EvTranslate, ISA: "x86", Addr: 0x1000, CostUS: 12.5})
	tr.Emit(Record{Name: EvMigrateEnd, ISA: "arm", CostUS: 900})
	if sink.Written() != 2 || sink.Err() != nil {
		t.Fatalf("written=%d err=%v", sink.Written(), sink.Err())
	}
	recs, cut, err := ReadJSONL(&buf)
	if err != nil || cut != 0 {
		t.Fatalf("read back: cut=%d err=%v", cut, err)
	}
	if len(recs) != 2 || recs[0].Addr != 0x1000 || recs[0].CostUS != 12.5 || recs[1].Name != EvMigrateEnd {
		t.Fatalf("read back %+v", recs)
	}
	if recs[0] != tr.Records()[0] {
		t.Fatalf("JSONL round trip changed the record: %+v vs %+v", recs[0], tr.Records()[0])
	}
}

func TestNilTelemetrySafe(t *testing.T) {
	var tel *Telemetry
	tel.Emit(Record{Name: EvKill})
	tel.StartSpan("t", "s").End()
	if tel.EnableSpans(0) != nil {
		t.Fatal("nil telemetry enabled spans")
	}
	tel.Counter("x").Inc()
	tel.Gauge("y").Set(1)
	tel.Histogram("z").Observe(1)
	s := tel.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatal("nil telemetry leaked metrics")
	}
}
