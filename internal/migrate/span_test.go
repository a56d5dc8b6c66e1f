package migrate_test

import (
	"math"
	"sync"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/isa"
	"hipstr/internal/migrate"
	"hipstr/internal/telemetry"
	"hipstr/internal/testprogs"
)

// runTraced executes the call-chain workload under migration pressure
// with the given telemetry attached, returning the engine for its stats.
func runTraced(t *testing.T, tel *telemetry.Telemetry, seed int64) *migrate.Engine {
	t.Helper()
	bin, err := compiler.Compile(testprogs.CallChain(16))
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.Seed = seed
	cfg.RATSize = 2
	cfg.MigrateProb = 1.0
	cfg.Telemetry = tel
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := migrate.New()
	eng.BindTelemetry(tel)
	vm.Migrator = eng
	if tel != nil {
		vm.P.M.Trace = tel.Trace
	}
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if !vm.P.Exited {
		t.Fatal("workload did not exit")
	}
	return eng
}

// TestPhaseHistogramsAccountForCost pins the exact-decomposition
// contract: the migrate.phase.* histograms partition migrate.cost_us —
// their sums must agree within 1% (they agree exactly by construction;
// the tolerance only absorbs float summation order).
func TestPhaseHistogramsAccountForCost(t *testing.T) {
	tel := telemetry.New()
	eng := runTraced(t, tel, 1)
	if eng.Stats.Migrations == 0 {
		t.Fatal("no migrations occurred")
	}
	snap := tel.Reg.Snapshot()
	var costSum float64
	var costCount uint64
	for _, k := range []isa.Kind{isa.X86, isa.ARM} {
		h := snap.Histograms["migrate.cost_us.to_"+k.String()]
		costSum += h.Sum
		costCount += h.Count
	}
	if costCount != eng.Stats.Migrations {
		t.Fatalf("cost histograms hold %d observations, want %d migrations", costCount, eng.Stats.Migrations)
	}
	var phaseSum float64
	for _, name := range migrate.PhaseNames {
		h, ok := snap.Histograms["migrate.phase."+name]
		if !ok {
			t.Fatalf("missing migrate.phase.%s histogram", name)
		}
		if h.Count != eng.Stats.Migrations {
			t.Errorf("migrate.phase.%s count = %d, want %d", name, h.Count, eng.Stats.Migrations)
		}
		phaseSum += h.Sum
	}
	if costSum <= 0 {
		t.Fatalf("cost sum = %v, want > 0", costSum)
	}
	if rel := math.Abs(costSum-phaseSum) / costSum; rel > 0.01 {
		t.Fatalf("phase sum %v vs cost sum %v: off by %.2f%%, want <= 1%%", phaseSum, costSum, rel*100)
	}
	if rel := math.Abs(costSum-eng.Stats.TotalCostMicros) / costSum; rel > 0.01 {
		t.Fatalf("histogram cost %v vs engine total %v", costSum, eng.Stats.TotalCostMicros)
	}
}

// TestMigrationSpansDecomposeCost checks each recorded migration span
// tree: the phase children's modeled costs must account for >= 99% of
// their parent's end-to-end cost, and children must nest inside the
// parent's wall-clock interval.
func TestMigrationSpansDecomposeCost(t *testing.T) {
	tel := telemetry.New()
	tel.EnableSpans(0)
	eng := runTraced(t, tel, 1)
	if eng.Stats.Migrations == 0 {
		t.Fatal("no migrations occurred")
	}
	spans := tel.Trace.Spans()
	parents := map[uint64]telemetry.Record{}
	for _, s := range spans {
		if s.Track == "migrate" && s.ParentID == 0 {
			parents[s.ID] = s
		}
	}
	if uint64(len(parents)) != eng.Stats.Migrations {
		t.Fatalf("%d migrate parent spans, want %d", len(parents), eng.Stats.Migrations)
	}
	childCost := map[uint64]float64{}
	for _, s := range spans {
		if s.ParentID == 0 {
			continue
		}
		p, ok := parents[s.ParentID]
		if !ok {
			continue
		}
		if s.StartNS < p.StartNS || s.StartNS+s.DurNS > p.StartNS+p.DurNS {
			t.Errorf("child %q [%d,%d] outside parent [%d,%d]",
				s.Name, s.StartNS, s.StartNS+s.DurNS, p.StartNS, p.StartNS+p.DurNS)
		}
		childCost[s.ParentID] += s.CostUS
	}
	for id, p := range parents {
		if p.CostUS <= 0 {
			t.Errorf("migration span %d has no cost", id)
			continue
		}
		if cov := childCost[id] / p.CostUS; cov < 0.99 {
			t.Errorf("migration span %d: children cover %.1f%% of cost %v, want >= 99%%", id, cov*100, p.CostUS)
		}
	}
}

// TestSpanTracingRaceHammer runs 8 machines concurrently, all reporting
// into one shared tracer and registry, under -race. Each VM owns
// its state; only the telemetry layer is shared, so this pins the
// tracer's concurrency contract end to end.
func TestSpanTracingRaceHammer(t *testing.T) {
	tel := telemetry.New()
	tel.EnableSpans(256)
	const machines = 8
	var wg sync.WaitGroup
	errs := make(chan error, machines)
	for i := 0; i < machines; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			bin, err := compiler.Compile(testprogs.CallChain(16))
			if err != nil {
				errs <- err
				return
			}
			cfg := dbt.DefaultConfig()
			cfg.Seed = seed
			cfg.RATSize = 2
			cfg.MigrateProb = 1.0
			cfg.Telemetry = tel
			vm, err := dbt.New(bin, isa.X86, cfg)
			if err != nil {
				errs <- err
				return
			}
			eng := migrate.New()
			eng.BindTelemetry(tel)
			vm.Migrator = eng
			vm.P.M.Trace = tel.Trace
			if _, err := vm.Run(maxSteps); err != nil {
				errs <- err
			}
		}(int64(i))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(tel.Trace.Spans()) == 0 {
		t.Fatal("no spans recorded across 8 machines")
	}
}
