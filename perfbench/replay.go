package main

import (
	"errors"
	"fmt"
	"time"

	"hipstr/internal/core"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/perf"
	"hipstr/internal/proc"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// The layer replay times exported entry points of each layer on the
// workload's own binaries, in a process of its own, to give the unit
// costs the ledger multiplies the traced run's counts by.
const (
	replayNativeSteps = 1_500_000 // per binary, per mode (raw, observed)
	replayWarmup      = 50_000    // prototype warmup, as the fleet's default
	replayForkSteps   = 1_200_000 // per binary, spread over forks of quota steps
	replayTracedForks = 2         // per binary, reporting spans
	replayRespawns    = 8         // per binary
	replayDecodeReps  = 4         // decode/fuse sweeps over each text section
)

func runReplay(w *workloadSpec, seed int64) (*childResult, error) {
	profiles := workload.Profiles()
	quota := uint64(200_000)
	if w.fleet != nil {
		profiles = profiles[:0]
		for _, n := range w.fleet.workloads {
			p, ok := workload.ProfileByName(n)
			if !ok {
				return nil, fmt.Errorf("unknown workload %q", n)
			}
			profiles = append(profiles, p)
		}
		quota = w.fleet.quota
	}
	var bins []*fatbin.Binary
	t0 := time.Now()
	for _, p := range profiles {
		b, err := workload.Compile(p)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		bins = append(bins, b)
	}
	compile := time.Since(t0)
	layer := map[string]float64{"workload.compile_ms": ms(compile)}
	if err := decodeFuse(layer, bins); err != nil {
		return nil, err
	}
	if err := native(layer, bins); err != nil {
		return nil, err
	}
	if err := protected(layer, bins, seed, quota); err != nil {
		return nil, err
	}
	mine(layer, bins)
	return &childResult{Layer: layer}, nil
}

// decodeFuse times isa.DecodeBlock + isa.FuseBlock over every machine
// block of both text sections (the compiler's blocks, split where a
// block terminator ends a decode run): the work of one block-cache refill.
func decodeFuse(layer map[string]float64, bins []*fatbin.Binary) error {
	insts := make([]isa.Inst, 0, machine.BlockCap)
	var fused []isa.FusedInst
	var el time.Duration
	blocks := 0
	for _, b := range bins {
		for _, k := range isa.Kinds {
			code, base := b.Text[k], fatbin.TextBase(k)
			t0 := time.Now()
			for r := 0; r < replayDecodeReps; r++ {
				for _, f := range b.Funcs {
					for _, blk := range f.Blocks {
						for pc := blk.Addr[k]; pc < blk.End[k]; blocks++ {
							var err error
							insts, err = isa.DecodeBlock(k, code[pc-base:blk.End[k]-base], pc, insts[:0], machine.BlockCap)
							if err != nil {
								return fmt.Errorf("decode %s at %#x on %s: %w", b.Module, pc, k, err)
							}
							fused, _ = isa.FuseBlock(insts, fused[:0])
							for i := range insts {
								pc += uint32(insts[i].Size)
							}
						}
					}
				}
			}
			el += time.Since(t0)
		}
	}
	layer["isa.decode_fuse_ns_per_block"] = float64(el) / float64(max(1, blocks))
	return nil
}

// nativeRun runs fresh native processes of bin on ISA k until steps
// instructions retired, optionally with the timing model attached, and
// returns the time spent in Run and the machines' counters.
func nativeRun(bin *fatbin.Binary, k isa.Kind, steps uint64, model bool) (time.Duration, uint64, machine.BlockCacheStats, machine.FusionStats, error) {
	var el time.Duration
	var done uint64
	var bs machine.BlockCacheStats
	var fs machine.FusionStats
	for done < steps {
		p, err := proc.New(bin, k)
		if err != nil {
			return 0, 0, bs, fs, err
		}
		if model {
			perf.NewModel(perf.CoreFor(k)).Attach(p.M)
		}
		t0 := time.Now()
		n, err := p.Run(steps - done)
		el += time.Since(t0)
		done += n
		s, f := p.M.BlockStats(), p.M.FusionStats()
		bs.Hits += s.Hits
		bs.Misses += s.Misses
		fs.PairsFused += f.PairsFused
		fs.Commits += f.Commits
		if err != nil {
			return 0, 0, bs, fs, fmt.Errorf("native %s on %s: %w", bin.Module, k, err)
		}
		if n == 0 {
			break
		}
	}
	return el, done, bs, fs, nil
}

// native measures machine.Run per step bare (raw) and with perf.Model
// attached (observed), half the steps on each ISA.
func native(layer map[string]float64, bins []*fatbin.Binary) error {
	var raw, obs time.Duration
	var rawN, obsN uint64
	var rawBS machine.BlockCacheStats
	var rawFS, obsFS machine.FusionStats
	for _, b := range bins {
		for _, k := range isa.Kinds {
			el, n, bs, fs, err := nativeRun(b, k, replayNativeSteps/2, false)
			if err != nil {
				return err
			}
			raw, rawN = raw+el, rawN+n
			rawBS.Hits, rawBS.Misses = rawBS.Hits+bs.Hits, rawBS.Misses+bs.Misses
			rawFS.PairsFused += fs.PairsFused
			el, n, _, fs, err = nativeRun(b, k, replayNativeSteps/2, true)
			if err != nil {
				return err
			}
			obs, obsN = obs+el, obsN+n
			obsFS.Commits += fs.Commits
		}
	}
	rawNS := float64(raw) / float64(rawN)
	layer["machine.raw_ns_per_step"] = rawNS
	layer["perf.observed_ns_per_step"] = float64(obs) / float64(obsN)
	layer["perf.model_ns_per_step"] = layer["perf.observed_ns_per_step"] - rawNS
	// The suite publishes no machine or migration counters, so paper-eval
	// reports the replay's; a traced fleet run overrides them with its
	// tenants' own.
	layer["machine.blockcache.hit_ratio"] = rawBS.HitRatio()
	layer["machine.fusion.pairs"] = float64(rawFS.PairsFused)
	layer["machine.fusion.commits"] = float64(obsFS.Commits)
	// Warm fused execution per step: raw time less its own refills.
	refill := float64(rawBS.Misses) * layer["isa.decode_fuse_ns_per_block"]
	layer["ledger.exec_ns_per_step"] = max(0, float64(raw)-refill) / float64(rawN)
	return nil
}

// protected replays the fleet's tenant path on each binary: boot a HIPStR
// prototype and warm it, then time core.Snapshot.Fork, the fork's Run for
// one quota, and core.Snapshot.Respawn, with per-fork private telemetry as
// the fleet forks. A few more forks report into one span-traced telemetry,
// whose spans time every translation (installs from the shared unit cache
// included) and every migration.
func protected(layer map[string]float64, bins []*fatbin.Binary, seed int64, quota uint64) error {
	tel := telemetry.New()
	spans := tel.EnableSpans(1 << 17)
	private := dbt.ForkConfig{TraceCap: 256}
	var forkUS, respawnUS []float64
	var run time.Duration
	var steps uint64
	for i, b := range bins {
		cfg := core.DefaultConfig()
		cfg.DBT.Seed = seed ^ int64(i+1)<<16
		cfg.DBT.Telemetry = tel
		sys, err := core.New(b, cfg)
		if err != nil {
			return err
		}
		if _, err := sys.Run(replayWarmup); err != nil && !errors.Is(err, dbt.ErrSecurityKill) {
			return fmt.Errorf("warmup %s: %w", b.Module, err)
		}
		snap := sys.Snapshot()
		forks := max(1, replayForkSteps/quota)
		for f := uint64(0); f < forks+replayTracedForks; f++ {
			fc := private
			if f >= forks {
				fc = dbt.ForkConfig{Telemetry: tel}
			}
			t0 := time.Now()
			g, err := snap.Fork(fc)
			el := time.Since(t0)
			if err != nil {
				return err
			}
			t0 = time.Now()
			n, err := g.Run(quota)
			if f < forks {
				forkUS = append(forkUS, float64(el)/1e3)
				run += time.Since(t0)
				steps += n
			}
			if err != nil && !errors.Is(err, dbt.ErrSecurityKill) {
				return fmt.Errorf("fork of %s: %w", b.Module, err)
			}
		}
		for r := 0; r < replayRespawns; r++ {
			t0 := time.Now()
			if _, err := snap.Respawn(seed+int64(r+1)*0x6C62272E07BB0142, private); err != nil {
				return err
			}
			respawnUS = append(respawnUS, float64(time.Since(t0))/1e3)
		}
	}
	layer["dbt.vm_ns_per_step"] = float64(run) / float64(max(1, steps))
	layer["mem.fork_us_p50"] = quantile(forkUS, 0.5)
	layer["mem.respawn_us_p50"] = quantile(respawnUS, 0.5)

	var translateUS, migrateUS, modeledUS []float64
	for _, s := range spans.Spans() {
		us := float64(s.DurNS) / 1e3
		switch {
		case s.Track == "dbt" && s.Name == "translate":
			translateUS = append(translateUS, us)
		case s.Track == "migrate" && s.Name == "migrate" && s.ParentID == 0:
			migrateUS = append(migrateUS, us)
			modeledUS = append(modeledUS, s.CostUS)
		}
	}
	layer["dbt.translate_us_p50"] = quantile(translateUS, 0.5)
	layer["migrate.host_us_p50"] = quantile(migrateUS, 0.5)
	layer["migrate.migrations"] = float64(len(migrateUS))
	layer["migrate.modeled_us_mean"] = mean(modeledUS)
	return nil
}

// mine times gadget.Mine over both ISAs' text, per binary.
func mine(layer map[string]float64, bins []*fatbin.Binary) {
	t0 := time.Now()
	for _, b := range bins {
		for _, k := range isa.Kinds {
			gadget.Mine(b, k, 0)
		}
	}
	layer["gadget.mine_ms"] = ms(time.Since(t0)) / float64(len(bins))
}
