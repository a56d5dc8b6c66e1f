package telemetry

import (
	"sync"
	"testing"
	"time"
)

func ids(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

func wantIDs(t *testing.T, recs []Record, first, last uint64) {
	t.Helper()
	if len(recs) != int(last-first+1) {
		t.Fatalf("ids %v, want %d..%d", ids(recs), first, last)
	}
	for i, r := range recs {
		if r.ID != first+uint64(i) {
			t.Fatalf("ids %v, want %d..%d", ids(recs), first, last)
		}
	}
}

// TestTracerSinceLapped: a cursor the ring has lapped gets the retained
// records, oldest first, and a count of the ones that rotated out.
func TestTracerSinceLapped(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Record{Name: EvTranslate})
	}
	recs, next, dropped := tr.Since(0)
	wantIDs(t, recs, 7, 10)
	if next != 10 || dropped != 6 {
		t.Fatalf("next=%d dropped=%d, want 10, 6", next, dropped)
	}
	recs, next, dropped = tr.Since(8)
	wantIDs(t, recs, 9, 10)
	if next != 10 || dropped != 0 {
		t.Fatalf("Since(8): next=%d dropped=%d, want 10, 0", next, dropped)
	}
	if recs, next, dropped = tr.Since(10); len(recs) != 0 || next != 10 || dropped != 0 {
		t.Fatalf("caught-up cursor: %v next=%d dropped=%d", ids(recs), next, dropped)
	}
	var nilTr *Tracer
	if recs, next, _ := nilTr.Since(3); recs != nil || next != 3 {
		t.Fatal("nil tracer returned records")
	}
}

// TestTracerSinceAcrossResize: EnableSpans reallocates the ring, but
// cursors count records, not ring slots, so they stay valid when the ring
// shrinks and when it grows.
func TestTracerSinceAcrossResize(t *testing.T) {
	tel := NewWithTraceCap(8)
	for i := 0; i < 6; i++ {
		tel.Emit(Record{Name: EvTranslate})
	}
	_, cur, _ := tel.Trace.Since(0)
	tel.EnableSpans(4) // keeps 3..6
	tel.Emit(Record{Name: EvTranslate})
	tel.StartSpan("dbt", "translate").End() // record 8
	recs, next, dropped := tel.Trace.Since(cur)
	wantIDs(t, recs, 7, 8)
	if next != 8 || dropped != 0 {
		t.Fatalf("after shrink: next=%d dropped=%d", next, dropped)
	}
	// A lagging cursor sees the shrink's evictions as drops: 2..4 are gone.
	recs, _, dropped = tel.Trace.Since(1)
	wantIDs(t, recs, 5, 8)
	if dropped != 3 {
		t.Fatalf("lagging cursor dropped=%d, want 3", dropped)
	}

	tel.EnableSpans(16) // grows: keeps 5..8, then appends
	for i := 0; i < 3; i++ {
		tel.Emit(Record{Name: EvTranslate})
	}
	recs, next, dropped = tel.Trace.Since(next)
	wantIDs(t, recs, 9, 11)
	if next != 11 || dropped != 0 {
		t.Fatalf("after grow: next=%d dropped=%d", next, dropped)
	}
	recs, _, dropped = tel.Trace.Since(0)
	wantIDs(t, recs, 5, 11)
	if dropped != 4 {
		t.Fatalf("from zero after grow: dropped=%d, want 4", dropped)
	}
}

func fired(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	case <-time.After(5 * time.Second):
		return false
	}
}

func pending(c <-chan struct{}) bool {
	select {
	case <-c:
		return false
	default:
		return true
	}
}

// TestTracerWait: the wake channel closes on the next record, point or
// span, and is already closed for a cursor behind the ring's head.
func TestTracerWait(t *testing.T) {
	tr := NewTracer(8)
	c := tr.Wait(0)
	if !pending(c) {
		t.Fatal("Wait fired on an empty tracer")
	}
	tr.Emit(Record{Name: EvKill})
	if !fired(c) {
		t.Fatal("Wait did not fire on Emit")
	}
	if pending(tr.Wait(0)) {
		t.Fatal("Wait behind the head must be closed already")
	}

	c = tr.Wait(1)
	sp := tr.StartSpan("migrate", "migrate")
	if !pending(c) {
		t.Fatal("StartSpan records nothing, yet Wait fired")
	}
	sp.End()
	if !fired(c) {
		t.Fatal("Wait did not fire on span End")
	}
}

// TestTracerCursorConcurrent runs writers against a cursor reader (run
// under -race): every record is either read exactly once or counted as
// dropped, and a reader never sees a record twice.
func TestTracerCursorConcurrent(t *testing.T) {
	const writers, per = 4, 500
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					tr.Emit(Record{Name: EvTranslate})
				} else {
					tr.StartSpan("dbt", "translate").End()
				}
			}
		}()
	}
	seen := map[uint64]bool{}
	var cur, lost uint64
	for cur < writers*per {
		select {
		case <-tr.Wait(cur):
		case <-time.After(5 * time.Second):
			t.Fatalf("reader stalled at %d", cur)
		}
		recs, next, dropped := tr.Since(cur)
		for _, r := range recs {
			if seen[r.ID] {
				t.Fatalf("record %d read twice", r.ID)
			}
			seen[r.ID] = true
		}
		if uint64(len(recs))+dropped != next-cur {
			t.Fatalf("cursor %d->%d: %d read + %d dropped", cur, next, len(recs), dropped)
		}
		lost += dropped
		cur = next
	}
	wg.Wait()
	if uint64(len(seen))+lost != writers*per {
		t.Fatalf("read %d + dropped %d != %d recorded", len(seen), lost, writers*per)
	}
}

// TestEmitNoReaderAllocs: the wake channel costs recording nothing while
// nobody waits.
func TestEmitNoReaderAllocs(t *testing.T) {
	tr := NewTracer(16)
	for i := 0; i < 16; i++ { // fill the ring so append never grows it
		tr.Emit(Record{Name: EvTranslate})
	}
	if a := testing.AllocsPerRun(1000, func() { tr.Emit(Record{Name: EvTranslate}) }); a != 0 {
		t.Fatalf("Emit allocates %.1f/op with no reader", a)
	}
}
