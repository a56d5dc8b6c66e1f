package obsrv_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/health"
	"hipstr/internal/isa"
	"hipstr/internal/obsrv"
	"hipstr/internal/profiler"
	"hipstr/internal/testprogs"
)

// TestConcurrentScrapesDuringExecution is the -race proof of serving
// health.Monitor.Latest: one goroutine drives a PSR VM in chunks,
// feeding the monitor a snapshot at every chunk boundary, while scrapers
// hammer /metrics, /stats.json, and /profile throughout. Registry
// collectors read non-atomic VM state, so this only stays race-free
// because handlers never call Snapshot() themselves. Scrapers also assert
// the served counters never move backwards.
func TestConcurrentScrapesDuringExecution(t *testing.T) {
	tc := testprogs.All()["nested"]
	bin, err := compiler.Compile(tc.Mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(bin, 8)
	prof.SetResolver(vm.ResolvePC)
	prof.Attach(vm.P.M)
	prof.BindTelemetry(vm.Telemetry())

	mon := health.NewMonitor(health.Config{})
	h := obsrv.NewHandler(obsrv.Options{
		Snapshot: mon.Latest,
		Trace:    vm.Telemetry().Trace,
		Profile:  func() (profiler.Report, bool) { return prof.Report(), true },
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	mon.ObserveNow(vm.Telemetry().Snapshot())
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastHits uint64
			for n := 0; n < 25; n++ {
				for _, path := range []string{"/metrics", "/stats.json", "/profile"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != 200 {
						t.Errorf("%s = %d", path, resp.StatusCode)
						return
					}
					if path == "/metrics" {
						h := promValue(t, string(body), "machine_blockcache_hits")
						if h < lastHits {
							t.Errorf("machine_blockcache_hits went backwards: %d -> %d", lastHits, h)
						}
						lastHits = h
					}
				}
			}
		}()
	}

	// Drive the VM in small chunks, observing at each boundary, for as
	// long as the scrapers run — every scrape overlaps an Observe.
	scrapersDone := make(chan struct{})
	go func() { wg.Wait(); close(scrapersDone) }()
	const chunk = 20_000
	chunks := 0
	for {
		select {
		case <-scrapersDone:
		default:
			if !vm.P.Exited {
				if _, err := vm.Run(chunk); err != nil {
					t.Fatal(err)
				}
				if chunks++; chunks > 10_000 {
					t.Fatal("program did not exit")
				}
			}
			mon.ObserveNow(vm.Telemetry().Snapshot())
			continue
		}
		break
	}

	if !vm.P.Exited {
		t.Fatal("program did not exit")
	}
	snap, _ := mon.Latest()
	if snap.Counters["machine.blockcache.hits"] == 0 {
		t.Error("no block cache hits recorded")
	}
	if snap.Counters["profiler.samples"] == 0 {
		t.Error("profiler collector not served through the monitor")
	}
}

func promValue(t *testing.T, body, series string) uint64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				t.Fatalf("parse %s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not in exposition:\n%s", series, body)
	return 0
}
