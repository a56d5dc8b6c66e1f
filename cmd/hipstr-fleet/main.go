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
// After the drain the monitor keeps sampling, up to -incident-settle,
// until no rule is open or pending, so incident lifecycles close.
// SIGINT or SIGTERM drains gracefully: admission stops, workers finish
// their in-flight slices, and the final -metrics-out snapshot and
// incident artifacts are still written before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"strings"
	"sync"
	"time"

	"hipstr/cmd/internal/hostobs"
	"hipstr/internal/core"
	"hipstr/internal/fleet"
	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/workload"
)

func main() { hostobs.Main(run) }

// run executes one hipstr-fleet invocation with the given command-line
// arguments, writing its report to stdout; ctx cancellation drains the
// fleet (and ends the -listen linger).
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hipstr-fleet", flag.ExitOnError)
	workloads := fs.String("workloads", "libquantum", "comma-separated workload profiles tenants run")
	guests := fs.Int("guests", 2000, "number of tenants to admit")
	rate := fs.Float64("rate", 0, "target admissions/sec for the open-loop Poisson generator (0 = admit back-to-back)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	slice := fs.Uint64("slice", fleet.DefaultSliceSteps, "step budget per dispatch slice")
	quota := fs.Uint64("quota", 200_000, "per-life step quota retiring a tenant (0 = run to completion)")
	seed := fs.Int64("seed", 1, "fleet seed rooting every deterministic stream")
	migrateProb := fs.Float64("migrate-prob", 1.0, "per-security-event migration probability (hipstr mode)")
	attackProb := fs.Float64("attack-prob", 0, "per-slice probability of an injected breach (exercises kill/respawn)")
	respawnLimit := fs.Int("respawn-limit", 3, "breach respawns before a tenant is killed for good")
	cacheQuota := fs.Uint("cache-quota", 0, "per-tenant code cache bytes per ISA (0 = engine default)")
	warmup := fs.Uint64("warmup", 50_000, "prototype warmup steps populating the shared unit cache")
	cold := fs.Bool("cold", false, "cold admission: boot every tenant from scratch (baseline vs warm forking)")
	mode := fs.String("mode", "hipstr", "psr | hipstr")
	report := fs.Duration("report", 2*time.Second, "print a fleet status line this often (0 = none)")
	healthIv := fs.Duration("health-interval", 250*time.Millisecond, "health monitor sampling interval (0 = health engine off)")
	incidentDir := fs.String("incident-dir", "", "dump each incident flight-recorder bundle as JSON into this directory")
	settle := fs.Duration("incident-settle", 5*time.Second, "after the drain, keep sampling up to this long so open and pending incidents can resolve")
	var obs hostobs.Host
	obs.Register(fs)
	obs.RegisterLinger(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}

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
		return fmt.Errorf("unknown -mode %q (want psr or hipstr)", *mode)
	}

	h := fleet.NewHost(cfg)
	obs.Start(stdout, h.Telemetry())
	defer obs.Close()

	// The health engine: rolling history + built-in fleet rules + the
	// incident flight recorder, fed off the scrape-safe aggregate
	// registry by a dedicated sampling goroutine.
	var mon *health.Monitor
	if *healthIv > 0 || *incidentDir != "" {
		mon = health.NewMonitor(health.Config{
			Rules:     fleet.DefaultHealthRules(),
			Telemetry: h.Telemetry(),
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
	// and /readyz honestly reports the warmup window. The fleet registry
	// is scrape-safe, so handlers snapshot it live.
	err := obs.Serve(obsrv.Options{
		Tenants: h,
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
	}, mon)
	if err != nil {
		return err
	}

	names := strings.Split(*workloads, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if err := h.AddWorkload(names[i]); err != nil {
			return err
		}
	}
	h.MarkReady()

	// The monitor samples on its own ticker: fleet collectors read only
	// atomics, so snapshotting off the worker goroutines is safe. A
	// baseline sample before admission lets a storm shorter than one
	// interval still show up as a rate.
	iv := *healthIv
	if iv <= 0 {
		iv = 250 * time.Millisecond
	}
	sample := func() { mon.ObserveNow(h.Telemetry().Snapshot()) }
	stopSampler := func() {}
	if mon != nil {
		sample()
		stopSampler = every(iv, sample)
		defer stopSampler()
	}

	h.Start(ctx)
	if *report > 0 {
		defer every(*report, func() {
			a := h.Aggregates()
			open := 0
			if mon != nil {
				open = mon.OpenIncidents()
			}
			fmt.Fprintf(stdout, "fleet: admitted %d  active %d (peak %d)  done %d  rps %.0f  p99 %.0fms  steals %d  respawns %d  incidents open %d\n",
				a.Admitted, a.Active, a.ActivePeak,
				a.Completed+a.Killed, a.RPS,
				a.LatencyP99us/1000, a.Steals, a.Respawns, open)
		})()
	}

	// Open-loop admission: the schedule is fixed by the seed and rate; a
	// saturated host falls behind it rather than slowing it down.
	arr := workload.NewArrivals(*seed, *rate)
	next := time.Now()
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
			h.Close()
			h.Wait() // drain the workers; the admission error is the one to report
			return err
		}
	}
	h.Close()
	if err := h.Wait(); err != nil {
		if admitted == *guests {
			log.Printf("fleet: %v", err)
		} else {
			fmt.Fprintf(stdout, "interrupted: admission stopped at %d/%d, in-flight slices finished\n",
				admitted, *guests)
		}
	}

	// Settle: keep sampling until no rule is open or still pending (a
	// storm's rate decays to zero once the drain ends), bounded by
	// -incident-settle, so the final artifacts carry closed lifecycles.
	// A breach pending at the drain must be waited out too, or the final
	// sample could open an incident nothing is left to resolve. The last
	// sample is taken inside the loop; an interrupt skips the wait.
	if mon != nil {
		stopSampler()
		deadline := time.Now().Add(*settle)
		for {
			sample()
			if mon.Engine.Settled() || ctx.Err() != nil || time.Until(deadline) < iv {
				break
			}
			time.Sleep(iv)
		}
	}

	a := h.Aggregates()
	fmt.Fprintf(stdout, "fleet complete: %d admitted, %d completed, %d killed in %v\n",
		a.Admitted, a.Completed, a.Killed, a.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(stdout, "  throughput: %.1f req/s  (%d steps, %d slices, %d steals)\n",
		a.RPS, a.Steps, a.Slices, a.Steals)
	fmt.Fprintf(stdout, "  latency: p50 %.2fms  p99 %.2fms\n",
		a.LatencyP50us/1000, a.LatencyP99us/1000)
	fmt.Fprintf(stdout, "  defense: %d breaches, %d respawns, %d migrations\n",
		a.Breaches, a.Respawns, a.Migrations)
	if mon != nil {
		opened, resolved, _ := mon.Recorder.Counts()
		fmt.Fprintf(stdout, "  health: %d incidents opened, %d resolved, %d still open\n",
			opened, resolved, opened-resolved)
		if err := mon.Recorder.DumpErr(); err != nil {
			log.Printf("incident artifacts: %v", err)
		} else if *incidentDir != "" && opened > 0 {
			fmt.Fprintf(stdout, "  incident bundles written to %s\n", *incidentDir)
		}
	}

	if err := obs.WriteArtifacts(); err != nil {
		return err
	}
	obs.Linger(ctx, "drain complete")
	return nil
}

// every calls fn every d on its own goroutine until the returned stop is
// called; stop is idempotent and returns once the goroutine has exited.
func every(d time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fn()
			case <-quit:
				return
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(quit); <-done }) }
}
