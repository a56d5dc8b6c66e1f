package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"hipstr/internal/experiments"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// paperSetup compiles every profile once: the generated inputs must
// compile before the evaluation starts, and the compile is the set-up a
// hipstr-bench user waits through.
func paperSetup() (*childResult, error) {
	ms, err := compileProfiles()
	if err != nil {
		return nil, err
	}
	res := setupDone()
	res.Layer["workload.compile_ms"] = ms
	return res, nil
}

// compileProfiles compiles the paper's profiles, returning the time in ms.
func compileProfiles() (float64, error) {
	var total time.Duration
	for _, p := range workload.Profiles() {
		t0 := time.Now()
		if _, err := workload.Compile(p); err != nil {
			return 0, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		total += time.Since(t0)
	}
	return ms(total), nil
}

// paperRep runs the full evaluation once with Parallel = nproc. Each
// experiment runs through the engine on its own so its printed table can
// be hashed apart; the suite's state (compile cache, Table 2's entropy
// for Figure 7) carries across calls exactly as in one engine run.
func paperRep(seed int64, traced bool, outDir string) (*childResult, error) {
	res, err := paperSetup()
	if err != nil {
		return nil, err
	}
	layer := res.Layer

	suite := experiments.NewSuite(nil)
	suite.Parallel = runtime.GOMAXPROCS(0)
	tel := telemetry.New()
	suite.Telemetry = tel
	var spans *telemetry.SpanTracer
	if traced {
		spans = tel.EnableSpans(1 << 17)
	}

	res.Digests = map[string]string{}
	tables := sha256.New()
	ctx := context.Background()
	rt0, cpu0 := readRuntime(), cpuSeconds()
	busy0, steal0 := hostCPU()
	start := time.Now()
	for _, e := range experiments.All() {
		var out bytes.Buffer
		suite.Out = &out
		t0 := time.Now()
		_, err := experiments.Run(ctx, suite, []experiments.Experiment{e}, experiments.Options{})
		d := time.Since(t0)
		res.Attempted++
		res.LatencyMS = append(res.LatencyMS, ms(d))
		layer["experiments."+e.Name()+"_s"] = d.Seconds()
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", e.Name(), err))
			continue
		}
		tables.Write(out.Bytes())
		sum := sha256.Sum256(out.Bytes())
		res.Digests[e.Name()] = hex.EncodeToString(sum[:])
	}
	res.WallS = time.Since(start).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	res.OpenCPUS = res.CPUS
	res.AllocMB = (readRuntime().allocBytes - rt0.allocBytes) / 1e6
	res.StealFrac = stealSince(busy0, steal0)
	res.Digests["tables"] = hex.EncodeToString(tables.Sum(nil))
	runtimeLayer(layer, rt0, res.Attempted)

	if traced {
		all := spans.Spans()
		layer["experiments.pool_busy_frac"] = cellLedger(layer, all, res.WallS, suite.Parallel)
		if err := writeTrace(outDir, "paper-eval", seed, all, nil); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// cellLedger records each experiment's summed cell-span time as a
// ledger input (ledger.cells.<name>) and returns the pool's busy share,
// Σ cell time ÷ (wall × workers).
func cellLedger(layer map[string]float64, spans []telemetry.SpanEvent, wallS float64, workers int) float64 {
	exp := map[uint64]string{}
	for _, s := range spans {
		if s.Track == "experiments" && s.ParentID == 0 {
			exp[s.ID] = s.Name
		}
	}
	total := 0.0
	for _, s := range spans {
		if s.Name == "cell" {
			sec := float64(s.DurNS) / 1e9
			layer["ledger.cells."+exp[s.ParentID]] += sec
			total += sec
		}
	}
	return total / (wallS * float64(workers))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
