package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"hipstr/internal/experiments"
	"hipstr/internal/fleet"
	"hipstr/internal/isa"
	"hipstr/internal/telemetry"
)

// perLayer lists every per-layer metric a traced run reports, in
// BENCHMARK.json's order. A metric a workload does not exercise reads 0
// (paper-eval never admits a tenant; the fleet runs no experiment).
var perLayer = func() [][2]string {
	var out [][2]string
	for _, e := range experiments.All() {
		out = append(out, [2]string{"experiments." + e.Name() + "_s", "s"})
	}
	return append(out, [][2]string{
		{"experiments.pool_busy_frac", "frac"},
		{"perf.observed_ns_per_step", "ns"},
		{"perf.model_ns_per_step", "ns"},
		{"machine.fusion.commits", "count"},
		{"gadget.mine_ms", "ms"},
		{"isa.decode_fuse_ns_per_block", "ns"},
		{"machine.blockcache.misses", "count/tenant"},
		{"machine.raw_ns_per_step", "ns"},
		{"machine.blockcache.hit_ratio", "frac"},
		{"machine.fusion.pairs", "count"},
		{"dbt.vm_ns_per_step", "ns"},
		{"dbt.translations", "count/tenant"},
		{"dbt.sharedcache.hit_ratio", "frac"},
		{"dbt.translate_us_p50", "us"},
		{"dbt.flushes", "count"},
		{"dbt.security_events", "count"},
		{"migrate.migrations", "count"},
		{"migrate.host_us_p50", "us"},
		{"migrate.modeled_us_mean", "us"},
		{"mem.fork_us_p50", "us"},
		{"mem.respawn_us_p50", "us"},
		{"mem.cow.broken_pages", "count/tenant"},
		{"fleet.admit_us_p50", "us"},
		{"fleet.admit_us_p99", "us"},
		{"fleet.gen_late_ms_p99", "ms"},
		{"fleet.service_ms_mean", "ms"},
		{"fleet.wait_ms_mean", "ms"},
		{"fleet.backlog_max", "count"},
		{"fleet.backlog_growth", "count"},
		{"fleet.saturated", "flag"},
		{"fleet.slices", "count"},
		{"fleet.steals", "count"},
		{"fleet.respawns", "count"},
		{"fleet.killed", "count"},
		{"health.observe_us_p99", "us"},
		{"trace.overhead_frac", "frac"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.alloc_mb_per_op", "MB"},
		{"workload.compile_ms", "ms"},
		{"fleet.addworkload_ms", "ms"},
		{"ledger.coverage_frac", "frac"},
		{"e2e.wall_s", "s"},
		{"e2e.p50_ms", "ms"},
		{"e2e.p99_ms", "ms"},
		{"e2e.capacity_rps", "1/s"},
		{"e2e.cpu_ms_per_op", "ms"},
		{"e2e.setup_wall_s", "s"},
		{"e2e.host_steal_frac", "frac"},
	}...)
}()

// tenantLayer sums the counters of each open-loop tenant's frozen
// snapshot (the final life's, for a respawned tenant).
func tenantLayer(layer map[string]float64, h *fleet.Host, tenants []*fleet.Tenant) {
	c := map[string]float64{}
	var costUS float64
	var translate telemetry.HistSnapshot
	for _, t := range tenants {
		_, snap, ok := h.TenantSnapshot(strconv.FormatUint(t.ID(), 10))
		if !ok {
			continue
		}
		for k, v := range snap.Counters {
			c[k] += float64(v)
		}
		costUS += snap.Gauges["migrate.total_cost_us"]
		for _, k := range isa.Kinds {
			translate = mergeHist(translate, snap.Histograms["dbt.translate.latency_us."+k.String()])
		}
	}
	// The VM times each translation (or shared-unit install) itself; the
	// ledger takes its mean, as installs are cheap and full translations
	// rare but costly.
	layer["dbt.translate_us_p50"] = translate.Quantile(0.5)
	if translate.Count > 0 {
		layer["ledger.translate_us_mean"] = translate.Sum / float64(translate.Count)
	}
	n := float64(max(1, len(tenants)))
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	translations := c["dbt.translations.x86"] + c["dbt.translations.arm"]
	layer["machine.blockcache.misses"] = c["machine.blockcache.misses"] / n
	layer["machine.blockcache.hit_ratio"] = ratio(c["machine.blockcache.hits"], c["machine.blockcache.misses"])
	layer["machine.fusion.pairs"] = c["machine.fusion.pairs"]
	layer["machine.fusion.commits"] = c["machine.fusion.commits"]
	layer["dbt.translations"] = translations / n
	layer["dbt.sharedcache.hit_ratio"] = ratio(c["dbt.sharedcache.hits"], c["dbt.sharedcache.misses"])
	layer["dbt.flushes"] = c["dbt.flushes"]
	layer["dbt.security_events"] = c["dbt.security_events"]
	layer["migrate.migrations"] = c["migrate.migrations"]
	layer["migrate.modeled_us_mean"] = costUS / max(1, c["migrate.migrations"])
	layer["mem.cow.broken_pages"] = c["mem.cow.broken_pages"] / n
	layer["ledger.misses"] = c["machine.blockcache.misses"]
	layer["ledger.translations"] = translations
}

// mergeHist adds b's observations to a (same bucket layout).
func mergeHist(a, b telemetry.HistSnapshot) telemetry.HistSnapshot {
	counts := map[float64]uint64{}
	for _, x := range append(a.Buckets, b.Buckets...) {
		counts[x.UpperBound] += x.Count
	}
	out := telemetry.HistSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum, Min: a.Min, Max: max(a.Max, b.Max)}
	if a.Count == 0 || (b.Count > 0 && b.Min < a.Min) {
		out.Min = b.Min
	}
	for ub, n := range counts {
		out.Buckets = append(out.Buckets, telemetry.Bucket{UpperBound: ub, Count: n})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].UpperBound < out.Buckets[j].UpperBound })
	return out
}

// hostLayer reads the host's aggregate counters and the generator's own
// timings of the open-loop phase.
func hostLayer(layer map[string]float64, snap telemetry.Snapshot, admitUS, lateMS []float64, latMeanMS float64) {
	n := float64(max(1, snap.Counters["fleet.admitted"]))
	service := snap.Histograms["fleet.slice_us"].Sum / n / 1e3
	layer["fleet.admit_us_p50"] = quantile(admitUS, 0.5)
	layer["fleet.admit_us_p99"] = quantile(admitUS, 0.99)
	layer["fleet.gen_late_ms_p99"] = quantile(lateMS, 0.99)
	layer["fleet.service_ms_mean"] = service
	layer["fleet.wait_ms_mean"] = latMeanMS - service - mean(admitUS)/1e3
	for _, k := range []string{"slices", "steals", "respawns", "killed"} {
		layer["fleet."+k] = float64(snap.Counters["fleet."+k])
	}
	layer["ledger.steps"] = float64(snap.Counters["fleet.steps"])
	layer["ledger.admitted"] = float64(snap.Counters["fleet.admitted"])
}

// openLoopValidity reports the backlog during the fixed-rate phase and
// flags a run whose mean backlog grew from the first half of the phase to
// the second: at that rate it measured saturation, not latency.
func openLoopValidity(layer map[string]float64, samples []backlogSample, base time.Time, phase time.Duration) {
	half := base.Add(phase / 2)
	var first, second []float64
	peak := 0.0
	for _, s := range samples {
		if s.at.After(base.Add(phase)) {
			break
		}
		peak = max(peak, s.active)
		if s.at.Before(half) {
			first = append(first, s.active)
		} else {
			second = append(second, s.active)
		}
	}
	growth := mean(second) - mean(first)
	layer["fleet.backlog_max"] = peak
	layer["fleet.backlog_growth"] = growth
	if growth > max(2, mean(first)/2) {
		layer["fleet.saturated"] = 1
	}
}

// ledgerRow is one layer's share of a traced run's busy CPU time:
// count × unit cost (s).
type ledgerRow struct {
	layer, what string
	count, unit float64
}

func (r ledgerRow) hostS() float64 { return r.count * r.unit }

// ledger multiplies the traced run's per-layer counts by unit costs and
// returns the rows with their coverage of busy CPU time. Unit costs are
// medians where the cost per call is narrow, so a wait inside a timed
// call (preemption, steal, a GC assist) does not count as the layer's
// work; GC has its own row. Translation costs are bimodal (cheap shared
// installs, costly full translations), so that row uses the VM's own mean.
// Paper-eval's layers are not yet traced from inside, so its rows are each
// experiment's summed cell spans.
func ledger(w *workloadSpec, layer map[string]float64, busyS float64) ([]ledgerRow, float64) {
	var rows []ledgerRow
	add := func(l, what string, count, unitS float64) {
		rows = append(rows, ledgerRow{layer: l, what: what, count: count, unit: unitS})
	}
	if w.fleet == nil {
		for _, e := range experiments.All() {
			add("experiments."+e.Name(), "cell spans", 1, layer["ledger.cells."+e.Name()])
		}
	} else {
		add("fleet+mem", "admissions × Admit (run)", layer["ledger.admitted"], layer["fleet.admit_us_p50"]/1e6)
		add("mem", "respawns × Respawn", layer["fleet.respawns"], layer["mem.respawn_us_p50"]/1e6)
		add("isa", "refills × decode+fuse", layer["ledger.misses"], layer["isa.decode_fuse_ns_per_block"]/1e9)
		add("machine", "steps × warm fused exec", layer["ledger.steps"], layer["ledger.exec_ns_per_step"]/1e9)
		add("dbt", "translations × mean (run)", layer["ledger.translations"], layer["ledger.translate_us_mean"]/1e6)
		add("migrate", "migrations × migrate", layer["migrate.migrations"], layer["migrate.host_us_p50"]/1e6)
		add("health", "Monitor.Observe calls (run)", 1, layer["ledger.observe_s"])
		add("runtime", "GC share of busy CPU", 1, layer["runtime.gc_cpu_frac"]*busyS)
	}
	total := 0.0
	for _, r := range rows {
		total += r.hostS()
	}
	if busyS <= 0 {
		return rows, 0
	}
	return rows, total / busyS
}

func printLedger(f *os.File, name string, rows []ledgerRow, busyS, coverage, overhead float64) {
	fmt.Fprintf(f, "layer ledger (%s): host time per layer vs busy CPU %.3f s\n", name, busyS)
	for _, r := range rows {
		share := 0.0
		if busyS > 0 {
			share = r.hostS() / busyS
		}
		fmt.Fprintf(f, "  %-26s %-26s %12.0f × %-12.4g = %9.4f s  %6.1f%%\n",
			r.layer, r.what, r.count, r.unit, r.hostS(), 100*share)
	}
	fmt.Fprintf(f, "  coverage %.1f%% of busy CPU; tracing overhead %+.1f%%\n", 100*coverage, 100*overhead)
}

// writeTrace writes the traced run's spans as Chrome trace JSON and, for
// the fleet, one lifecycle record per open-loop tenant.
func writeTrace(dir, name string, seed int64, spans []telemetry.SpanEvent, lives []lifecycle) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	f, err := os.Create(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, spans, nil); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if lives == nil {
		return nil
	}
	b, err := json.Marshal(lives)
	if err != nil {
		return err
	}
	return os.WriteFile(base+".tenants.json", b, 0o644)
}
