package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hipstr/internal/fleet"
	"hipstr/internal/health"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// breachKill is the kill reason of a tenant that exhausted its respawns
// under injected breaches: the defense working, not a failure.
const breachKill = "respawn limit: injected breach detection"

// healthInterval is hipstr-fleet's default health sampling interval.
const healthInterval = 250 * time.Millisecond

func (m *fleetMix) config(seed int64, workers int) fleet.Config {
	cfg := fleet.DefaultConfig()
	cfg.Workers = workers
	cfg.Seed = seed
	cfg.Policy.StepQuota = m.quota
	if m.slice > 0 {
		cfg.Policy.SliceSteps = m.slice
	}
	cfg.Policy.AttackProb = m.attackProb
	return cfg
}

// newHost builds a host and adds every workload of the mix (compile,
// prototype boot, warmup), returning the AddWorkload time in ms.
func (m *fleetMix) newHost(seed int64, workers int) (*fleet.Host, float64, error) {
	h := fleet.NewHost(m.config(seed, workers))
	t0 := time.Now()
	for _, w := range m.workloads {
		if err := h.AddWorkload(w); err != nil {
			return nil, 0, err
		}
	}
	h.MarkReady()
	return h, ms(time.Since(t0)), nil
}

func fleetSetup(m *fleetMix, seed int64) (*childResult, error) {
	_, addMS, err := m.newHost(seed, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	res := setupDone()
	res.Layer["fleet.addworkload_ms"] = addMS
	return res, nil
}

// monitor samples the host's registry into a health monitor on
// hipstr-fleet's default interval, timing each Observe and recording the
// backlog (active tenants) and resident set it saw. Only its goroutine
// writes observeUS, backlog and peakRSS; read them after close.
type monitor struct {
	mon   *health.Monitor
	h     *fleet.Host
	spans *telemetry.SpanTracer

	observeUS []float64
	backlog   []backlogSample
	peakRSS   float64

	stop chan struct{}
	done chan struct{}
}

type backlogSample struct {
	at     time.Time
	active float64
}

func startMonitor(h *fleet.Host, spans *telemetry.SpanTracer) *monitor {
	mo := &monitor{
		mon: health.NewMonitor(health.Config{
			Rules:     fleet.DefaultHealthRules(),
			Telemetry: h.Telemetry(),
			Recorder: health.RecorderConfig{
				Events:  h.Telemetry().Trace.Tail,
				Tenants: h,
			},
		}),
		h:     h,
		spans: spans,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go mo.loop()
	return mo
}

func (mo *monitor) loop() {
	defer close(mo.done)
	tick := time.NewTicker(healthInterval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			snap := mo.h.Telemetry().Snapshot()
			sp := mo.spans.StartSpan("health", "observe")
			t0 := time.Now()
			mo.mon.Observe(t0.UnixNano(), snap)
			d := time.Since(t0)
			sp.End()
			mo.observeUS = append(mo.observeUS, float64(d)/1e3)
			mo.backlog = append(mo.backlog, backlogSample{at: t0, active: snap.Gauges["fleet.active"]})
			mo.peakRSS = max(mo.peakRSS, rssMB())
		case <-mo.stop:
			return
		}
	}
}

// close stops the sampler and waits for it to exit.
func (mo *monitor) close() {
	close(mo.stop)
	<-mo.done
}

// lifecycle is one open-loop tenant as the generator saw it, in offsets
// from the phase start: when it was due, when Admit started and returned.
type lifecycle struct {
	ID         uint64  `json:"id"`
	Due        float64 `json:"due_ms"`
	AdmitStart float64 `json:"admit_start_ms"`
	AdmitEnd   float64 `json:"admit_end_ms"`
	Retire     float64 `json:"retire_ms"`
}

// fleetRep runs one repetition: set-up, the open-loop phase at the mix's
// rate, then a back-to-back drain of the first nDrain tenants of the same
// mix on a fresh host.
func fleetRep(w *workloadSpec, seed int64, nOpen, nDrain int, traced bool, outDir string) (*childResult, error) {
	m := w.fleet
	workers := runtime.GOMAXPROCS(0)
	h, addMS, err := m.newHost(seed, workers)
	if err != nil {
		return nil, err
	}
	res := setupDone()
	layer := res.Layer
	layer["fleet.addworkload_ms"] = addMS
	var spans *telemetry.SpanTracer
	if traced {
		spans = telemetry.NewSpanTracer(1 << 17)
	}

	// Open-loop phase: the schedule is fixed by the seed and the rate; a
	// saturated host falls behind it rather than slowing it down.
	ctx := context.Background()
	mo := startMonitor(h, spans)
	rt0, cpu0 := readRuntime(), cpuSeconds()
	busy0, steal0 := hostCPU()
	h.Start(ctx)
	arr := workload.NewArrivals(seed, m.rate)
	lives := make([]lifecycle, 0, nOpen)
	tenants := make([]*fleet.Tenant, 0, nOpen)
	var admitUS, lateMS []float64
	base := time.Now()
	var due time.Duration
	for i := 0; i < nOpen; i++ {
		due += arr.Next()
		if d := due - time.Since(base); d > 0 {
			time.Sleep(d)
		}
		as := time.Since(base)
		sp := spans.StartSpan("fleet", "admit")
		t, err := h.Admit(m.workloads[i%len(m.workloads)])
		ae := time.Since(base)
		res.Attempted++
		if err != nil {
			sp.End()
			res.Failures = append(res.Failures, fmt.Sprintf("open tenant %d refused: %v", i+1, err))
			continue
		}
		sp.SetDetail("tenant " + strconv.FormatUint(t.ID(), 10))
		sp.End()
		admitUS = append(admitUS, float64(ae-as)/1e3)
		lateMS = append(lateMS, ms(as-due))
		lives = append(lives, lifecycle{ID: t.ID(), Due: ms(due), AdmitStart: ms(as), AdmitEnd: ms(ae)})
		tenants = append(tenants, t)
	}
	admitted := time.Since(base)
	h.Close()
	if err := h.Wait(); err != nil {
		return nil, err
	}
	openWall := time.Since(base)
	mo.close()
	res.PeakRSSMB = max(mo.peakRSS, rssMB())
	res.OpenCPUS = cpuSeconds() - cpu0
	openAlloc := readRuntime().allocBytes - rt0.allocBytes
	runtimeLayer(layer, rt0, nOpen)

	var latSum float64
	for i, t := range tenants {
		// The host times admission (after the fork) to retirement; the
		// tenant was admitted no later than Admit returned.
		lives[i].Retire = lives[i].AdmitEnd + ms(t.Latency())
		lat := lives[i].Retire - lives[i].Due
		latSum += lat
		res.LatencyMS = append(res.LatencyMS, lat)
		res.Open = append(res.Open, t.Digest())
		if msg := tenantFailure(t); msg != "" {
			res.Failures = append(res.Failures, "open "+msg)
		}
	}
	openLoopValidity(layer, mo.backlog, base, admitted)
	if traced {
		tenantLayer(layer, h, tenants)
		hostLayer(layer, h.Telemetry().Snapshot(), admitUS, lateMS, latSum/float64(max(1, len(tenants))))
		layer["health.observe_us_p99"] = quantile(mo.observeUS, 0.99)
		layer["ledger.observe_s"] = sum(mo.observeUS) / 1e6
		if err := writeTrace(outDir, w.name, seed, spans.Spans(), lives); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	// Back-to-back drain on a fresh host: tenant IDs restart at 1, so its
	// results must equal the first nDrain tenants of the open-loop phase.
	h2, _, err := m.newHost(seed, workers)
	if err != nil {
		return nil, err
	}
	mo2 := startMonitor(h2, nil)
	rt1, cpu1 := readRuntime(), cpuSeconds()
	h2.Start(ctx)
	d0 := time.Now()
	drained := make([]*fleet.Tenant, 0, nDrain)
	for i := 0; i < nDrain; i++ {
		t, err := h2.Admit(m.workloads[i%len(m.workloads)])
		res.Attempted++
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("drain tenant %d refused: %v", i+1, err))
			continue
		}
		drained = append(drained, t)
	}
	h2.Close()
	if err := h2.Wait(); err != nil {
		return nil, err
	}
	res.DrainS = time.Since(d0).Seconds()
	mo2.close()
	res.DrainN = len(drained)
	for _, t := range drained {
		res.Drain = append(res.Drain, t.Digest())
		if msg := tenantFailure(t); msg != "" {
			res.Failures = append(res.Failures, "drain "+msg)
		}
	}
	res.WallS = openWall.Seconds() + res.DrainS
	res.CPUS = res.OpenCPUS + cpuSeconds() - cpu1
	res.AllocMB = (openAlloc + readRuntime().allocBytes - rt1.allocBytes) / 1e6
	res.StealFrac = stealSince(busy0, steal0)
	return res, nil
}

// tenantFailure explains why a retired tenant counts as failed, or
// returns "" when it completed or was killed by the injected-breach
// respawn limit.
func tenantFailure(t *fleet.Tenant) string {
	switch t.State() {
	case "done":
		return ""
	case "killed":
		if strings.HasPrefix(t.Err(), breachKill) {
			return ""
		}
		return fmt.Sprintf("tenant %d killed: %s", t.ID(), t.Err())
	}
	return fmt.Sprintf("tenant %d not retired (%s)", t.ID(), t.State())
}

// fleetReference runs the open-loop tenants back-to-back on one worker,
// outside any timed region. The fleet's determinism contract makes
// per-tenant results independent of worker count and timing, so this is
// the reference for a seed with no recorded digests.
func fleetReference(m *fleetMix, seed int64, n int) (*childResult, error) {
	h, _, err := m.newHost(seed, 1)
	if err != nil {
		return nil, err
	}
	h.Start(context.Background())
	res := &childResult{}
	var tenants []*fleet.Tenant
	for i := 0; i < n; i++ {
		t, err := h.Admit(m.workloads[i%len(m.workloads)])
		if err != nil {
			return nil, fmt.Errorf("reference tenant %d refused: %w", i+1, err)
		}
		tenants = append(tenants, t)
	}
	h.Close()
	if err := h.Wait(); err != nil {
		return nil, err
	}
	// A tenant that fails here fails in the timed repetitions too, where
	// it is counted; the reference only records digests.
	for _, t := range tenants {
		res.Open = append(res.Open, t.Digest())
	}
	return res, nil
}

// setDigest folds (tenant ID, result digest) pairs, IDs counting from 1,
// into one FNV-1a word.
func setDigest(digests []uint64) string {
	const prime = 0x100000001b3
	d := uint64(0xcbf29ce484222325)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			d = (d ^ (v >> (8 * i) & 0xff)) * prime
		}
	}
	for i, v := range digests {
		put(uint64(i + 1))
		put(v)
	}
	return fmt.Sprintf("%016x", d)
}
