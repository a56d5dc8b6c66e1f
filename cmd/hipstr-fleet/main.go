// Command hipstr-fleet runs the multi-tenant fleet host: thousands of
// guest VMs admitted from a seeded open-loop Poisson traffic generator,
// forked from per-workload prototype snapshots (warm admission), and
// executed on a work-stealing worker pool under per-tenant policy
// (step quotas, migration probability, kill/respawn under attack).
//
// A health monitor watches the fleet while it runs: aggregate metrics are
// sampled into a rolling history ring every -health-interval, the
// built-in SLO/anomaly rules (respawn storms, attack waves, latency SLO
// burn, injector starvation) are evaluated against it, and each rule
// firing captures an incident flight-recorder bundle — triggering series
// window, recent trace events, top offender tenants, host config — kept
// in memory, served over HTTP, and (with -incident-dir) dumped as JSON
// artifacts.
//
// With -listen it serves the observability endpoints plus the fleet
// drill-down: /metrics carries fleet_* aggregates and per-tenant series,
// /tenants lists every guest, /tenants/{id} adds one guest's private
// telemetry snapshot, /history serves the metric history, /incidents the
// flight recorder, and /readyz reports ready only once every workload
// prototype is booted and warmed. cmd/hipstr-top renders all of it as a
// live terminal console.
//
// SIGINT drains gracefully: admission stops, workers finish their
// in-flight slices, and the final -metrics-out snapshot and incident
// artifacts are still written before exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hipstr/internal/core"
	"hipstr/internal/fleet"
	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

func main() {
	workloads := flag.String("workloads", "libquantum", "comma-separated workload profiles tenants run")
	guests := flag.Int("guests", 2000, "number of tenants to admit")
	rate := flag.Float64("rate", 0, "target admissions/sec for the open-loop Poisson generator (0 = admit back-to-back)")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	slice := flag.Uint64("slice", fleet.DefaultSliceSteps, "step budget per dispatch slice")
	quota := flag.Uint64("quota", 200_000, "per-life step quota retiring a tenant (0 = run to completion)")
	seed := flag.Int64("seed", 1, "fleet seed rooting every deterministic stream")
	migrateProb := flag.Float64("migrate-prob", 1.0, "per-security-event migration probability (hipstr mode)")
	attackProb := flag.Float64("attack-prob", 0, "per-slice probability of an injected breach (exercises kill/respawn)")
	respawnLimit := flag.Int("respawn-limit", 3, "breach respawns before a tenant is killed for good")
	cacheQuota := flag.Uint("cache-quota", 0, "per-tenant code cache bytes per ISA (0 = engine default)")
	warmup := flag.Uint64("warmup", 50_000, "prototype warmup steps populating the shared unit cache")
	cold := flag.Bool("cold", false, "cold admission: boot every tenant from scratch (baseline vs warm forking)")
	mode := flag.String("mode", "hipstr", "psr | hipstr")
	listen := flag.String("listen", "", "serve observability + /tenants drill-down on this address")
	linger := flag.Bool("linger", false, "with -listen, keep serving after the drain until Ctrl-C")
	metricsOut := flag.String("metrics-out", "", "write the final aggregate metrics snapshot as JSON to this file")
	report := flag.Duration("report", 2*time.Second, "print a fleet status line this often (0 = none)")
	healthIv := flag.Duration("health-interval", 250*time.Millisecond, "health monitor sampling interval (0 = health engine off)")
	healthWindow := flag.Int("health-window", 0, "history ring size in samples (0 = default)")
	incidentDir := flag.String("incident-dir", "", "dump each incident flight-recorder bundle as JSON into this directory")
	settle := flag.Duration("incident-settle", 5*time.Second, "after the drain, keep sampling up to this long so open incidents can resolve")
	flag.Parse()

	cfg := fleet.DefaultConfig()
	cfg.Workers = *workers
	cfg.Seed = *seed
	cfg.ColdAdmission = *cold
	cfg.Policy.SliceSteps = *slice
	cfg.Policy.StepQuota = *quota
	cfg.Policy.MigrateProb = *migrateProb
	cfg.Policy.AttackProb = *attackProb
	cfg.Policy.RespawnLimit = *respawnLimit
	cfg.Policy.CacheQuotaBytes = uint32(*cacheQuota)
	cfg.Policy.WarmupSteps = *warmup
	switch *mode {
	case "psr":
		cfg.Mode = core.ModePSR
	case "hipstr":
		cfg.Mode = core.ModeHIPStR
	default:
		log.Fatalf("unknown -mode %q (want psr or hipstr)", *mode)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	h := fleet.NewHost(cfg)

	// The health engine: rolling history + built-in fleet rules + the
	// incident flight recorder, fed off the scrape-safe aggregate
	// registry by a dedicated sampling goroutine.
	var mon *health.Monitor
	if *healthIv > 0 || *incidentDir != "" {
		mon = health.NewMonitor(health.Config{
			WindowSamples: *healthWindow,
			Rules:         fleet.DefaultHealthRules(),
			Telemetry:     h.Telemetry(),
			Recorder: health.RecorderConfig{
				Events:  h.Telemetry().Trace.Tail,
				Tenants: h,
				Dir:     *incidentDir,
				HostConfig: map[string]any{
					"workloads": *workloads, "guests": *guests, "rate": *rate,
					"workers": cfg.Workers, "mode": *mode, "seed": *seed,
					"slice": *slice, "quota": *quota,
					"attack_prob": *attackProb, "respawn_limit": *respawnLimit,
					"cold": *cold,
				},
			},
		})
	}

	// Serve before the prototypes boot so /healthz answers immediately
	// and /readyz honestly reports the warmup window.
	var srv *obsrv.Server
	if *listen != "" {
		snapFn := func() (telemetry.Snapshot, bool) {
			return h.Telemetry().Snapshot(), true
		}
		opts := obsrv.Options{
			Snapshot: snapFn,
			Trace:    h.Telemetry().Trace,
			Tenants:  h,
			Health: func() string {
				a := h.Aggregates()
				return fmt.Sprintf("fleet: %d active, %d/%d retired",
					a.Active, a.Completed+a.Killed, a.Admitted)
			},
			Ready: func() (bool, string) {
				if !h.Ready() {
					return false, "fleet prototypes still warming"
				}
				return true, "fleet prototypes warmed"
			},
		}
		if mon != nil {
			opts.History = mon.HistoryHandler()
			opts.Incidents = mon.Recorder.Handler()
		}
		var err error
		srv, err = obsrv.New(*listen, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("observability: serving http://%s/ (metrics, tenants, history, incidents)\n", srv.Addr())
		go func() {
			if err := srv.Serve(); err != nil && err != http.ErrServerClosed {
				log.Printf("observability: %v", err)
			}
		}()
	}

	names := strings.Split(*workloads, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if err := h.AddWorkload(names[i]); err != nil {
			log.Fatal(err)
		}
	}
	h.MarkReady()

	// The monitor samples on its own ticker: fleet collectors read only
	// atomics, so snapshotting off the worker goroutines is safe.
	monQuit := make(chan struct{})
	monDone := make(chan struct{})
	if mon != nil {
		iv := *healthIv
		if iv <= 0 {
			iv = 250 * time.Millisecond
		}
		go func() {
			defer close(monDone)
			tick := time.NewTicker(iv)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					mon.ObserveNow(h.Telemetry().Snapshot())
				case <-monQuit:
					return
				}
			}
		}()
	}

	h.Start(ctx)
	var rep *time.Ticker
	if *report > 0 {
		rep = time.NewTicker(*report)
		done := make(chan struct{})
		defer close(done)
		go func() {
			for {
				select {
				case <-rep.C:
					a := h.Aggregates()
					open := 0
					if mon != nil {
						open = mon.OpenIncidents()
					}
					fmt.Printf("fleet: admitted %d  active %d (peak %d)  done %d  rps %.0f  p99 %.0fms  steals %d  respawns %d  incidents open %d\n",
						a.Admitted, a.Active, a.ActivePeak,
						a.Completed+a.Killed, a.RPS,
						a.LatencyP99us/1000, a.Steals, a.Respawns, open)
				case <-done:
					return
				}
			}
		}()
		defer rep.Stop()
	}

	// Open-loop admission: the schedule is fixed by the seed and rate; a
	// saturated host falls behind it rather than slowing it down.
	arr := workload.NewArrivals(*seed, *rate)
	start := time.Now()
	next := start
	admitted := 0
	for ; admitted < *guests && ctx.Err() == nil; admitted++ {
		next = next.Add(arr.Next())
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
			if ctx.Err() != nil {
				break
			}
		}
		if _, err := h.Admit(names[admitted%len(names)]); err != nil {
			log.Fatal(err)
		}
	}
	h.Close()
	if err := h.Wait(); err != nil {
		if admitted == *guests {
			log.Printf("fleet: %v", err)
		} else {
			fmt.Printf("interrupted: admission stopped at %d/%d, in-flight slices finished\n",
				admitted, *guests)
		}
	}

	// Let open incidents resolve (a storm's rate decays to zero once the
	// drain ends) so the final artifacts carry closed lifecycles; an
	// interrupt skips the settle.
	if mon != nil {
		if *settle > 0 && ctx.Err() == nil {
			deadline := time.Now().Add(*settle)
			for mon.OpenIncidents() > 0 && time.Now().Before(deadline) {
				time.Sleep(50 * time.Millisecond)
			}
		}
		close(monQuit)
		<-monDone
		mon.ObserveNow(h.Telemetry().Snapshot())
	}

	a := h.Aggregates()
	fmt.Printf("fleet complete: %d admitted, %d completed, %d killed in %v\n",
		a.Admitted, a.Completed, a.Killed, a.Elapsed.Round(time.Millisecond))
	fmt.Printf("  throughput: %.1f req/s  (%d steps, %d slices, %d steals)\n",
		a.RPS, a.Steps, a.Slices, a.Steals)
	fmt.Printf("  latency: p50 %.2fms  p99 %.2fms\n",
		a.LatencyP50us/1000, a.LatencyP99us/1000)
	fmt.Printf("  defense: %d breaches, %d respawns, %d migrations\n",
		a.Breaches, a.Respawns, a.Migrations)
	if mon != nil {
		opened, resolved, _ := mon.Recorder.Counts()
		fmt.Printf("  health: %d incidents opened, %d resolved, %d still open\n",
			opened, resolved, opened-resolved)
		if err := mon.Recorder.DumpErr(); err != nil {
			log.Printf("incident artifacts: %v", err)
		} else if *incidentDir != "" && opened > 0 {
			fmt.Printf("  incident bundles written to %s\n", *incidentDir)
		}
	}

	if *metricsOut != "" {
		buf, err := json.MarshalIndent(h.Telemetry().Snapshot(), "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsOut, buf, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}

	if srv != nil {
		if *linger && ctx.Err() == nil {
			fmt.Printf("drain complete; observability server still on http://%s/ (Ctrl-C to exit)\n", srv.Addr())
			<-ctx.Done()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("observability shutdown: %v", err)
		}
	}
}
