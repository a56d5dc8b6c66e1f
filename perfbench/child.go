package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childResult is what one child process reports back on its stdout.
type childResult struct {
	// SetupS is process CPU time from start to the end of set-up, in which
	// stolen time does not count; SetupWallS is the wall time.
	SetupS     float64 `json:"setup_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	WallS      float64 `json:"wall_s"`
	// LatencyMS: fleet, each open-loop tenant from its scheduled arrival
	// to its retirement; paper-eval, each experiment's duration.
	LatencyMS []float64 `json:"latency_ms,omitempty"`
	DrainN    int       `json:"drain_n,omitempty"`
	DrainS    float64   `json:"drain_s,omitempty"`
	// PeakRSSMB: paper-eval, the process's peak resident set; fleet, the
	// peak sampled during the open-loop phase (the drain's pile-up of live
	// VMs depends on how fast the host happens to run).
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Attempted int     `json:"attempted"`
	// Failures lists refused tenants, tenants killed for any reason other
	// than the injected-breach respawn limit, and errored experiments.
	Failures []string `json:"failures,omitempty"`
	// Paper-eval: SHA-256 of each experiment's table and of all tables.
	Digests map[string]string `json:"digests,omitempty"`
	// Fleet: per-tenant result digests in ID order, per phase.
	Open  []uint64 `json:"open,omitempty"`
	Drain []uint64 `json:"drain,omitempty"`
	// Layer holds per-layer counts, unit costs and ledger inputs.
	Layer map[string]float64 `json:"layer,omitempty"`
	// CPUS is process CPU time (user+system) over the measured region
	// (fleet: the open-loop phase and the drain, not the drain host's
	// set-up); OpenCPUS over the ledger window (paper-eval: the same;
	// fleet: the open-loop phase).
	CPUS     float64 `json:"cpu_s"`
	OpenCPUS float64 `json:"open_cpu_s"`
	// AllocMB is heap allocated over the measured region, in MB.
	AllocMB float64 `json:"alloc_mb"`
	// StealFrac is the host's stolen share of CPU time over the measured
	// region (/proc/stat), a diagnostic for wall-time noise.
	StealFrac float64 `json:"steal_frac"`
}

// runChild executes one child role and prints its result as JSON.
func runChild(w *workloadSpec, role string, seed int64, nOpen, nDrain int, traced bool, outDir string) error {
	var res *childResult
	var err error
	switch {
	case role == "replay":
		res, err = runReplay(w, seed)
	case w.fleet == nil && role == "rep":
		res, err = paperRep(seed, traced, outDir)
	case w.fleet == nil && role == "setup":
		res, err = paperSetup()
	case w.fleet != nil && role == "rep":
		res, err = fleetRep(w, seed, nOpen, nDrain, traced, outDir)
	case w.fleet != nil && role == "setup":
		res, err = fleetSetup(w.fleet, seed)
	case w.fleet != nil && role == "ref":
		res, err = fleetReference(w.fleet, seed, nOpen)
	default:
		return fmt.Errorf("unknown role %q for %s", role, w.name)
	}
	if err != nil {
		return err
	}
	if res.PeakRSSMB == 0 {
		res.PeakRSSMB = peakRSSMB()
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// childTimeout bounds one child so a whole run stays well inside the
// 180 s a run may take.
const childTimeout = 150 * time.Second

// spawn runs this executable as a child in a fresh process and decodes
// its result. The child's stderr passes through.
func spawn(ctx context.Context, w *workloadSpec, role string, seed int64, p plan, traced bool, outDir string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	args := []string{
		"-child", role, "-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-n-open", strconv.Itoa(p.nOpen), "-n-drain", strconv.Itoa(p.nDrain),
		"-out-dir", outDir,
	}
	if traced {
		args = append(args, "-traced")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", role, err)
	}
	var res childResult
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s child: decode result: %w", role, err)
	}
	return &res, nil
}

// peakRSSMB is the process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// rssMB is the process's current resident set, in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// setupDone returns a result carrying the set-up's CPU and wall time.
func setupDone() *childResult {
	return &childResult{
		SetupS:     cpuSeconds(),
		SetupWallS: time.Since(procStart).Seconds(),
		Layer:      map[string]float64{},
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostCPU reads the machine-wide busy (user+nice+system) and steal
// jiffies from /proc/stat.
func hostCPU() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := func(i int) float64 { x, _ := strconv.ParseFloat(f[i], 64); return x }
	return v(1) + v(2) + v(3), v(8)
}

// stealSince is the stolen share of CPU time since (busy0, steal0).
func stealSince(busy0, steal0 float64) float64 {
	busy, steal := hostCPU()
	if d := (busy - busy0) + (steal - steal0); d > 0 {
		return (steal - steal0) / d
	}
	return 0
}

// rtSample reads the Go runtime's GC CPU, busy CPU and allocation totals.
type rtSample struct{ gcCPU, busyCPU, allocBytes float64 }

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{gcCPU: f(0), busyCPU: f(1) - f(2), allocBytes: f(3)}
}

// runtimeLayer fills the runtime layer's metrics for the window since a:
// the GC's share of busy CPU and heap allocation per operation.
func runtimeLayer(layer map[string]float64, a rtSample, ops int) {
	b := readRuntime()
	if busy := b.busyCPU - a.busyCPU; busy > 0 {
		layer["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / busy
	}
	if ops > 0 {
		layer["runtime.alloc_mb_per_op"] = (b.allocBytes - a.allocBytes) / 1e6 / float64(ops)
	}
}
