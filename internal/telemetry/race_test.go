package telemetry

import (
	"sync"
	"testing"
)

// TestConcurrentCountersAndSnapshots drives counters, gauges, histograms,
// and the tracer from many goroutines while snapshots are taken
// concurrently, then verifies the final totals. Run with -race: the
// registry's hot-path primitives must be wait-free against Snapshot.
func TestConcurrentCountersAndSnapshots(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	tel := New()
	c := tel.Counter("race.counter")
	h := tel.Histogram("race.hist")
	g := tel.Gauge("race.gauge")

	stop := make(chan struct{})
	snapDone := make(chan struct{})
	// Snapshot continuously while writers run; intermediate snapshots
	// must be internally consistent (counter never exceeds the total).
	go func() {
		defer close(snapDone)
		var prev Snapshot
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := tel.Snapshot()
			if s.Counters["race.counter"] > writers*perG {
				t.Error("counter overshot")
				return
			}
			d := s.Delta(prev)
			if d.Counters["race.counter"] > writers*perG {
				t.Error("delta overshot")
				return
			}
			prev = s
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i%100) + 0.5)
				g.Add(1)
				if i%500 == 0 {
					tel.Emit(Record{Name: EvPolicy, Detail: "race"})
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-snapDone

	s := tel.Snapshot()
	if got := s.Counters["race.counter"]; got != writers*perG {
		t.Fatalf("counter = %d, want %d", got, writers*perG)
	}
	if got := s.Gauges["race.gauge"]; got != writers*perG {
		t.Fatalf("gauge = %v, want %d", got, writers*perG)
	}
	hs := s.Histograms["race.hist"]
	if hs.Count != writers*perG {
		t.Fatalf("hist count = %d, want %d", hs.Count, writers*perG)
	}
	var n uint64
	for _, b := range hs.Buckets {
		n += b.Count
	}
	if n != hs.Count {
		t.Fatalf("bucket sum %d != count %d", n, hs.Count)
	}
}
