// Command hipstr-run executes a benchmark natively or under the PSR /
// HIPStR virtual machines and reports execution statistics: live stats on
// a configurable instruction interval, a final summary, and optional
// machine-readable telemetry (-metrics-out JSON snapshot, -trace-out JSONL
// trace stream, -timeline-out Perfetto timeline). With -listen it
// embeds the observability server, exposing
// Prometheus metrics, the live trace stream, the guest-cycle sampling
// profiler, and pprof over HTTP while the simulation runs; -profile-out
// writes the profiler's folded flamegraph stacks at exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hipstr"
	"hipstr/cmd/internal/hostobs"
	"hipstr/internal/health"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/obsrv"
	"hipstr/internal/perf"
	"hipstr/internal/profiler"
	"hipstr/internal/telemetry"
)

func main() { hostobs.Main(run) }

// run executes one hipstr-run invocation with the given command-line
// arguments, writing its report to stdout; ctx cancellation interrupts
// the run (and ends the -listen linger).
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hipstr-run", flag.ExitOnError)
	name := fs.String("workload", "libquantum", "benchmark to run")
	mode := fs.String("mode", "hipstr", "native | psr | hipstr")
	isaName := fs.String("isa", "x86", "ISA to run on (native) or start on (psr/hipstr): x86 | arm")
	steps := fs.Uint64("steps", 50_000_000, "instruction budget")
	seed := fs.Int64("seed", 1, "randomization seed")
	traceOut := fs.String("trace-out", "", "stream the trace records (points, plus spans when recorded) to this file as JSON lines")
	interval := fs.Uint64("report-interval", 10_000_000, "print live stats every N instructions (0 = only at exit)")
	profileOut := fs.String("profile-out", "", "write folded flamegraph stacks of the guest-cycle profile to this file")
	profileInterval := fs.Uint64("profile-interval", profiler.DefaultInterval, "guest-cycle sampling period in instructions")
	var obs hostobs.Host
	obs.Register(fs)
	obs.RegisterTimeline(fs)
	obs.RegisterLinger(fs, true)
	if err := fs.Parse(args); err != nil {
		return err
	}

	tel := hipstr.NewTelemetry()
	obs.Start(stdout, tel)
	defer obs.Close()
	var traceSink *telemetry.JSONLSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		traceSink = hipstr.NewJSONLTraceSink(f)
		tel.Trace.AddSink(traceSink)
	}

	bin, err := hipstr.CompileWorkload(*name)
	if err != nil {
		return err
	}

	startISA, err := parseISA(*isaName)
	if err != nil {
		return err
	}

	// The profiler is strictly opt-in: without -profile-out or -listen no
	// hook is attached and the dispatch loop runs untouched.
	var prof *profiler.Profiler
	if *profileOut != "" || obs.Listen != "" {
		prof = profiler.New(bin, *profileInterval)
		prof.BindTelemetry(tel)
	}

	// runChunk executes up to n instructions; finish prints the final
	// mode-specific summary.
	var runChunk func(n uint64) (uint64, bool, error)
	var finish func()

	switch *mode {
	case "native":
		p, err := hipstr.RunNative(bin, startISA)
		if err != nil {
			return err
		}
		// One timing model per ISA of the heterogeneous CMP; the core the
		// process boots on drives the dispatch loop, the sibling registers
		// its (zero) series so dashboards see both cores.
		var models [2]*perf.Model
		for _, k := range isa.Kinds {
			models[k] = perf.NewModel(perf.CoreFor(k))
			models[k].BindTelemetry(tel)
		}
		model := models[startISA]
		model.Attach(p.M)
		// Guest-cycle span domain: the timing model's cycle counter.
		tel.Trace.SetCycleSource(func() float64 { return model.Cycles })
		p.M.Trace = tel.Trace
		if prof != nil {
			// After the model: samples then see post-charge cycle counts.
			prof.BindModel(model)
			prof.Attach(p.M)
		}
		tel.Reg.RegisterCollector(func() { p.M.PublishStats(tel.Reg) })
		runChunk = func(n uint64) (uint64, bool, error) {
			ran, err := p.Run(n)
			return ran, p.Exited, err
		}
		finish = func() {
			fmt.Fprintf(stdout, "native: %d instructions, exited=%v code=%d writes=%d\n",
				model.Counts.Instrs, p.Exited, p.ExitCode, len(p.Trace))
			fmt.Fprintf(stdout, "  cycles=%.0f cpi=%.3f est=%.3fms on %s\n",
				model.Cycles, model.CPI(), model.Seconds()*1e3, model.Core.Name)
			fmt.Fprintf(stdout, "  icache miss=%s dcache miss=%s bpred mispredict=%s\n",
				ratio(model.ICache.Misses, model.ICache.Hits()+model.ICache.Misses),
				ratio(model.DCache.Misses, model.DCache.Hits()+model.DCache.Misses),
				ratio(model.Bpred.Mispredicts, model.Bpred.Lookups))
			printBlockStats(stdout, p.M.BlockStats())
			printFusionStats(stdout, p.M.FusionStats())
		}
	case "psr", "hipstr":
		cfg := hipstr.Defaults()
		cfg.StartISA = startISA
		cfg.DBT.Seed = *seed
		cfg.DBT.Telemetry = tel
		if *mode == "psr" {
			cfg.Mode = hipstr.ModePSR
		}
		s, err := hipstr.Protect(bin, cfg)
		if err != nil {
			return err
		}
		// Guest-cycle span domain: no timing model is attached under the
		// VMs, so retired guest instructions stand in for cycles.
		m := s.VM.P.M
		tel.Trace.SetCycleSource(func() float64 { return float64(m.Steps) })
		m.Trace = tel.Trace
		if prof != nil {
			// Execution happens in the code caches; resolve cache PCs back
			// to guest source addresses (cycles sampled in trap stubs go
			// to "vm-dispatch" rather than "interpret"), and tap the tracer
			// so translation and migration costs show up as phases.
			prof.SetResolver(s.VM.ResolvePC)
			prof.AttachTracer(tel)
			prof.Attach(s.VM.P.M)
		}
		runChunk = func(n uint64) (uint64, bool, error) {
			ran, err := s.Run(n)
			return ran, s.Exited(), err
		}
		finish = func() {
			st := s.VM.Stats
			fmt.Fprintf(stdout, "%s: exited=%v code=%d\n", *mode, s.Exited(), s.ExitCode())
			fmt.Fprintf(stdout, "  translations x86=%d arm=%d, indirect dispatches=%d\n",
				st.Translations[hipstr.X86], st.Translations[hipstr.ARM], st.IndirectDispatch)
			fmt.Fprintf(stdout, "  security events=%d, migrations=%d, kills=%d, flushes=%d\n",
				st.SecurityEvents, st.Migrations, st.Kills, st.Flushes)
			fmt.Fprintf(stdout, "  shared units: %d hits, %d misses, %d installs, %d bytes saved\n",
				st.SharedHits, st.SharedMisses, st.SharedInstalls, st.SharedBytesSaved)
			fmt.Fprintf(stdout, "  cow: %d pages still shared, %d pages broken\n",
				s.VM.P.Mem.SharedPages(), s.VM.P.Mem.CowBroken())
			rat := s.VM.RATOf(s.Active())
			fmt.Fprintf(stdout, "  RAT: %d lookups, %d misses (active core: %s)\n",
				rat.Lookups, rat.Misses, s.Active())
			printBlockStats(stdout, s.VM.P.M.BlockStats())
			printFusionStats(stdout, s.VM.P.M.FusionStats())
		}
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	// The observability server never touches VM state: this goroutine
	// feeds a snapshot to the health monitor at each chunk boundary and
	// handlers serve the last one it observed. Every snapshot also lands
	// in the rolling history ring and is evaluated against the single-VM
	// rule set, so /history and /incidents work on one guest exactly as
	// they do on a fleet.
	var mon *health.Monitor
	if obs.Listen != "" {
		rcfg := health.RecorderConfig{Events: tel.Trace.Tail}
		if prof != nil {
			rcfg.Profile = func() (string, bool) {
				var b strings.Builder
				if err := prof.Report().WriteTop(&b, 10); err != nil {
					return "", false
				}
				return b.String(), true
			}
		}
		rcfg.HostConfig = map[string]any{
			"workload": *name, "mode": *mode, "isa": *isaName,
			"steps": *steps, "seed": *seed,
		}
		mon = health.NewMonitor(health.Config{
			Rules:     health.VMRules(),
			Telemetry: tel,
			Recorder:  rcfg,
		})
		mon.ObserveNow(tel.Snapshot())
		opts := obsrv.Options{Snapshot: mon.Latest}
		if prof != nil {
			opts.Profile = func() (profiler.Report, bool) { return prof.Report(), true }
		}
		if err := obs.Serve(opts, mon); err != nil {
			return err
		}
	}

	// When serving, cap chunks so scrapes see fresh counters even between
	// live reports.
	const publishChunk = 1_000_000
	var total, lastReport uint64
	prev := tel.Snapshot()
	for total < *steps && ctx.Err() == nil {
		chunk := *steps - total
		if *interval != 0 && chunk > *interval {
			chunk = *interval
		}
		if mon != nil && chunk > publishChunk {
			chunk = publishChunk
		}
		ran, exited, err := runChunk(chunk)
		total += ran
		due := *interval != 0 && !exited && total-lastReport >= *interval
		if mon != nil || due {
			snap := tel.Snapshot()
			if mon != nil {
				mon.ObserveNow(snap)
			}
			if due {
				reportLive(stdout, *mode, startISA.String(), total, snap, snap.Delta(prev))
				prev = snap
				lastReport = total
			}
		}
		if err != nil {
			fmt.Fprintf(stdout, "stopped after %d instructions: %v\n", total, err)
			break
		}
		if exited || ran == 0 {
			break
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(stdout, "interrupted after %d instructions\n", total)
	}
	finish()
	if mon != nil {
		mon.ObserveNow(tel.Snapshot())
		if opened, resolved, _ := mon.Recorder.Counts(); opened > 0 {
			fmt.Fprintf(stdout, "health: %d incidents opened, %d resolved (see /incidents)\n",
				opened, resolved)
		}
	}

	if prof != nil {
		rep := prof.Report()
		fmt.Fprintf(stdout, "profile: %d samples, %.1f%% of %.3e cycles attributed to guest functions\n",
			rep.Samples, 100*rep.AttributedRatio, rep.TotalCycles)
		if *profileOut != "" {
			if err := hostobs.WriteFile(*profileOut, rep.WriteFolded); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "folded profile written to %s\n", *profileOut)
		}
	}
	if err := obs.WriteArtifacts(); err != nil {
		return err
	}
	if *traceOut != "" {
		if err := traceSink.Err(); err != nil {
			return fmt.Errorf("write %s: %w", *traceOut, err)
		}
		fmt.Fprintf(stdout, "trace written to %s (%d records)\n", *traceOut, traceSink.Written())
	}
	obs.Linger(ctx, "run complete")
	return nil
}

// reportLive prints one compact live-stats line from the current snapshot
// and the delta since the previous report. core names the ISA whose perf
// series native mode reads (the core the process runs on).
func reportLive(stdout io.Writer, mode, core string, total uint64, snap, delta hipstr.MetricsSnapshot) {
	blkHit := ratio(snap.Counters["machine.blockcache.hits"],
		snap.Counters["machine.blockcache.hits"]+snap.Counters["machine.blockcache.misses"])
	if mode == "native" {
		pfx := "perf." + core
		fmt.Fprintf(stdout, "[%12d] cycles=%.3e cpi=%.3f icache-miss=%s dcache-miss=%s bpred-mis=%s blk-hit=%s\n",
			total,
			snap.Gauges[pfx+".cycles"], snap.Gauges[pfx+".cpi"],
			ratio(snap.Counters[pfx+".icache.misses"],
				snap.Counters[pfx+".icache.hits"]+snap.Counters[pfx+".icache.misses"]),
			ratio(snap.Counters[pfx+".dcache.misses"],
				snap.Counters[pfx+".dcache.hits"]+snap.Counters[pfx+".dcache.misses"]),
			ratio(snap.Counters[pfx+".bpred.mispredicts"], snap.Counters[pfx+".bpred.lookups"]),
			blkHit)
		return
	}
	ratLookups := snap.Counters["dbt.rat.x86.lookups"] + snap.Counters["dbt.rat.arm.lookups"]
	ratMisses := snap.Counters["dbt.rat.x86.misses"] + snap.Counters["dbt.rat.arm.misses"]
	fmt.Fprintf(stdout, "[%12d] translations=%d(+%d) sec-events=%d(+%d) migrations=%d(+%d) rat-hit=%s blk-hit=%s cache-occ=%.1f%%/%.1f%%\n",
		total,
		snap.Counters["dbt.translations.x86"]+snap.Counters["dbt.translations.arm"],
		delta.Counters["dbt.translations.x86"]+delta.Counters["dbt.translations.arm"],
		snap.Counters["dbt.security_events"], delta.Counters["dbt.security_events"],
		snap.Counters["dbt.migrations"], delta.Counters["dbt.migrations"],
		ratio(ratLookups-ratMisses, ratLookups), blkHit,
		100*snap.Gauges["dbt.cache.x86.occupancy"], 100*snap.Gauges["dbt.cache.arm.occupancy"])
}

// printBlockStats prints the final block-cache line, splitting invalidations
// into partial (page/range-scoped) and full (whole-cache) reconciles.
func printBlockStats(stdout io.Writer, bs machine.BlockCacheStats) {
	fmt.Fprintf(stdout, "  block cache: %d blocks, hit=%s, %d invalidations (%d partial, %d full), %d blocks evicted\n",
		bs.Blocks, ratio(bs.Hits, bs.Hits+bs.Misses),
		bs.Invalidations, bs.PartialInvalidations, bs.FullInvalidations, bs.BlocksEvicted)
}

// printFusionStats prints the superinstruction/batched-timing summary: how
// many instruction pairs were fused at predecode, and how block dispatches
// split between the fused fast path and exact per-instruction mode.
func printFusionStats(stdout io.Writer, fs machine.FusionStats) {
	fmt.Fprintf(stdout, "  fusion: %d pairs fused, blocks batched=%s (%d batched, %d exact), %d batched commits\n",
		fs.PairsFused, ratio(fs.BatchedBlocks, fs.BatchedBlocks+fs.ExactBlocks),
		fs.BatchedBlocks, fs.ExactBlocks, fs.Commits)
}

func parseISA(name string) (isa.Kind, error) {
	switch name {
	case "x86":
		return isa.X86, nil
	case "arm":
		return isa.ARM, nil
	}
	return 0, fmt.Errorf("unknown ISA %q (want x86 or arm)", name)
}

func ratio(num, den uint64) string {
	if den == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(num)/float64(den))
}
