package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// references holds what a run's outputs are checked against: the
// recorded entry for (workload, seed), or for a fleet seed without one,
// the per-tenant digests of a one-worker back-to-back reference run.
type references struct {
	entry    refEntry
	recorded bool
	tenants  []uint64
}

func loadReferences(ctx context.Context, w *workloadSpec, seed int64, p plan) (references, error) {
	e, ok := reference(w, seed, p)
	refs := references{entry: e, recorded: ok}
	if w.fleet != nil && !ok {
		r, err := spawn(ctx, w, "ref", seed, p, false, "")
		if err != nil {
			return refs, err
		}
		refs.tenants = r.Open
	}
	return refs, nil
}

// runEndToEnd measures the end-to-end metrics with tracing off: plan.reps
// timed repetitions and enough set-up-only children for plan.setups
// set-up samples, each in a fresh process.
func runEndToEnd(w *workloadSpec, seed int64, p plan) (*result, error) {
	ctx := context.Background()
	refs, err := loadReferences(ctx, w, seed, p)
	if err != nil {
		return nil, err
	}
	var reps []*childResult
	var setups []float64
	for i := 0; i < p.reps; i++ {
		r, err := spawn(ctx, w, "rep", seed, p, false, "")
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		setups = append(setups, r.SetupS)
	}
	for len(setups) < p.setups {
		r, err := spawn(ctx, w, "setup", seed, p, false, "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.SetupS)
	}
	res := newResult()
	check(res, w, reps, refs)
	endToEnd(res, w, reps, setups)
	return res, nil
}

// endToEnd fills the gated end-to-end metrics and prints the others
// beside them. For paper-eval an operation is one experiment (latency
// samples are experiment durations, capacity is experiments per second);
// for the fleet it is one tenant.
//
// The gate holds the metrics that stay steady on a host that loses a
// varying share of its CPU to hypervisor steal: heap allocation and
// memory, and set-up time, which every benchmark reports. Wall-clock metrics
// swing with steal by up to several times between runs minutes apart, and
// CPU time per operation by up to half, so they are printed with their sample
// counts, reported as e2e.* per-layer metrics by the traced run, and not
// gated.
func endToEnd(res *result, w *workloadSpec, reps []*childResult, setups []float64) {
	alloc, rss := make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		alloc[i] = r.AllocMB / float64(r.Attempted)
		rss[i] = r.PeakRSSMB
		fmt.Fprintf(os.Stderr, "perfbench: %s rep %d: wall %.3f s, capacity %.2f/s, cpu %.3f s, host steal %.0f%%\n",
			w.name, i+1, r.WallS, capacity(w, r), r.CPUS, 100*r.StealFrac)
		if r.Layer["fleet.saturated"] != 0 {
			res.warnings = append(res.warnings, fmt.Sprintf(
				"rep %d: open-loop backlog grew by %.1f tenants over the fixed-rate phase: this measured saturation, not latency",
				i+1, r.Layer["fleet.backlog_growth"]))
		}
	}
	n := len(reps)
	res.set("setup_s", "s", median(setups), len(setups))
	res.set("alloc_mb_per_op", "MB", median(alloc), n)
	res.set("peak_rss_mb", "MB", median(rss), n)
	for _, m := range ungated(w, reps) {
		res.extra = append(res.extra, fmt.Sprintf("%-36s %14.6g %-6s n=%d (not gated)", m.name, m.value, m.unit, m.n))
	}
}

// capacity is a repetition's closed-batch throughput: tenants retired per
// second in the drain, or experiments per second of the evaluation.
func capacity(w *workloadSpec, r *childResult) float64 {
	if w.fleet != nil {
		return float64(r.DrainN) / r.DrainS
	}
	return float64(len(r.LatencyMS)) / r.WallS
}

type sample struct {
	name, unit string
	value      float64
	n          int
}

// ungated computes the end-to-end metrics the gate leaves out: medians
// over repetitions, latency percentiles over the pooled samples.
func ungated(w *workloadSpec, reps []*childResult) []sample {
	var walls, caps, lat, cpu, steal, setup []float64
	for _, r := range reps {
		walls = append(walls, r.WallS)
		caps = append(caps, capacity(w, r))
		lat = append(lat, r.LatencyMS...)
		cpu = append(cpu, 1e3*r.CPUS/float64(r.Attempted))
		steal = append(steal, r.StealFrac)
		setup = append(setup, r.SetupWallS)
	}
	n := len(reps)
	return []sample{
		{"wall_s", "s", median(walls), n},
		{"p50_ms", "ms", quantile(lat, 0.5), len(lat)},
		{"p99_ms", "ms", quantile(lat, 0.99), len(lat)},
		{"capacity_rps", "1/s", median(caps), n},
		{"cpu_ms_per_op", "ms", median(cpu), n},
		{"setup_wall_s", "s", median(setup), n},
		{"host_steal_frac", "frac", median(steal), n},
	}
}

// check counts failures: the children's own (errored experiments,
// refused tenants, tenants killed other than by the injected-breach
// respawn limit) and every output that differs from the reference.
func check(res *result, w *workloadSpec, reps []*childResult, refs references) {
	failed := 0
	fail := func(n int, format string, args ...any) {
		failed += n
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}
	for i, r := range reps {
		res.Attempted += r.Attempted
		for _, f := range r.Failures {
			fail(1, "rep %d: %s", i+1, f)
		}
		if w.fleet == nil {
			// Without a recorded reference, repetitions must agree.
			want := reps[0].Digests
			if refs.recorded {
				want = refs.entry.Experiments
			}
			for name, d := range r.Digests {
				if name != "tables" && want[name] != d {
					fail(1, "rep %d: %s table differs from the reference", i+1, name)
				}
			}
			continue
		}
		if refs.tenants != nil {
			for j, d := range r.Open {
				if j >= len(refs.tenants) || refs.tenants[j] != d {
					fail(1, "rep %d: open tenant %d digest differs from the reference", i+1, j+1)
				}
			}
			for j, d := range r.Drain {
				if j >= len(refs.tenants) || refs.tenants[j] != d {
					fail(1, "rep %d: drain tenant %d digest differs from the reference", i+1, j+1)
				}
			}
			continue
		}
		if got := setDigest(r.Open); got != refs.entry.Open {
			fail(len(r.Open), "rep %d: open-loop digest %s, reference %s", i+1, got, refs.entry.Open)
		}
		if got := setDigest(r.Drain); got != refs.entry.Drain {
			fail(len(r.Drain), "rep %d: drain digest %s, reference %s", i+1, got, refs.entry.Drain)
		}
	}
	res.Failed = min(failed, res.Attempted)
	res.Correct = res.Failed == 0
}

// runTraced is the separate traced run: one untraced repetition (the
// overhead baseline), one traced repetition giving the counts, and the
// layer replay giving unit costs. It prints the layer ledger and reports
// every per-layer metric.
func runTraced(w *workloadSpec, seed int64, p plan, outDir string) (*result, error) {
	ctx := context.Background()
	refs, err := loadReferences(ctx, w, seed, p)
	if err != nil {
		return nil, err
	}
	base, err := spawn(ctx, w, "rep", seed, p, false, outDir)
	if err != nil {
		return nil, err
	}
	tr, err := spawn(ctx, w, "rep", seed, p, true, outDir)
	if err != nil {
		return nil, err
	}
	rp, err := spawn(ctx, w, "replay", seed, p, false, outDir)
	if err != nil {
		return nil, err
	}
	res := newResult()
	check(res, w, []*childResult{base, tr}, refs)

	// The replay's values first; the traced repetition's own counts
	// override them where the run publishes the same metric.
	layer := map[string]float64{}
	for k, v := range rp.Layer {
		layer[k] = v
	}
	for k, v := range tr.Layer {
		layer[k] = v
	}
	for _, m := range ungated(w, []*childResult{base}) {
		layer["e2e."+m.name] = m.value
	}
	// Overhead in CPU time per operation: steadier than wall time on a
	// host that loses CPU to steal.
	layer["trace.overhead_frac"] = (tr.CPUS/float64(tr.Attempted))/(base.CPUS/float64(base.Attempted)) - 1
	rows, coverage := ledger(w, layer, tr.OpenCPUS)
	layer["ledger.coverage_frac"] = coverage
	printLedger(os.Stdout, w.name, rows, tr.OpenCPUS, coverage, layer["trace.overhead_frac"])

	for _, m := range perLayer {
		res.set(m[0], m[1], layer[m[0]], 1)
	}
	return res, nil
}

// recordReference computes the reference entry for a seed: paper-eval's
// table digests from a serial (Parallel = 1) evaluation, and the fleet's
// set digests from a one-worker back-to-back run.
func recordReference(w *workloadSpec, seed int64, p plan) (refEntry, error) {
	ctx := context.Background()
	if w.fleet != nil {
		r, err := spawn(ctx, w, "ref", seed, p, false, "")
		if err != nil {
			return refEntry{}, err
		}
		return refEntry{
			NOpen: p.nOpen, NDrain: p.nDrain,
			Open: setDigest(r.Open), Drain: setDigest(r.Open[:p.nDrain]),
		}, nil
	}
	runtime.GOMAXPROCS(1)
	r, err := paperRep(seed, false, "")
	if err != nil {
		return refEntry{}, err
	}
	if len(r.Failures) > 0 {
		return refEntry{}, fmt.Errorf("reference run failed: %s", strings.Join(r.Failures, "; "))
	}
	e := refEntry{Tables: r.Digests["tables"], Experiments: map[string]string{}}
	for k, v := range r.Digests {
		if k != "tables" {
			e.Experiments[k] = v
		}
	}
	return e, nil
}
