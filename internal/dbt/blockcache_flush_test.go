package dbt_test

import (
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/isa"
	"hipstr/internal/migrate"
	"hipstr/internal/testprogs"
)

// TestFlushMidRunInvalidatesBlockCache forces code-cache flushes mid-run
// (2 KiB cache, many translation units) and verifies the interpreter's
// block cache drops its predecodes each time: stale decodes of evicted
// units must never execute, and the invalidation/hit counters must be
// visible through the telemetry registry.
func TestFlushMidRunInvalidatesBlockCache(t *testing.T) {
	mod := testprogs.CallChain(12)
	bin, err := compiler.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.CodeCacheSize = 2048
	cfg.MigrateProb = 0
	cfg.DualTranslate = false
	vm := runVM(t, bin, isa.X86, cfg)
	if vm.Stats.Flushes == 0 {
		t.Fatal("expected code cache flushes with a 2 KiB cache")
	}
	bs := vm.P.M.BlockStats()
	if bs.Invalidations == 0 {
		t.Fatal("code cache flushed but block cache never invalidated")
	}
	// With constant flush pressure nearly every dispatch re-decodes; the
	// cache may legitimately never hit here, but it must keep refilling.
	if bs.Misses == 0 {
		t.Fatalf("block cache saw no traffic: %+v", bs)
	}
	want := uint32(7 + 11*12/2)
	if vm.P.ExitCode != want {
		t.Fatalf("result corrupted across flushes: %d != %d", vm.P.ExitCode, want)
	}
	fs := vm.P.M.FusionStats()
	s := vm.Telemetry().Snapshot()
	for name, wantV := range map[string]uint64{
		"machine.blockcache.hits":                  bs.Hits,
		"machine.blockcache.misses":                bs.Misses,
		"machine.blockcache.shared_hits":           bs.SharedHits,
		"machine.blockcache.invalidations":         bs.Invalidations,
		"machine.blockcache.invalidations.partial": bs.PartialInvalidations,
		"machine.blockcache.invalidations.full":    bs.FullInvalidations,
		"machine.blockcache.evicted":               bs.BlocksEvicted,
		"machine.fusion.pairs":                     fs.PairsFused,
		"machine.fusion.blocks.batched":            fs.BatchedBlocks,
		"machine.fusion.blocks.exact":              fs.ExactBlocks,
		"machine.fusion.commits":                   fs.Commits,
	} {
		if got, ok := s.Counters[name]; !ok || got != wantV {
			t.Errorf("registry %s = %d (present=%v), want %d", name, got, ok, wantV)
		}
	}
	if got := s.Gauges["machine.blockcache.hit_ratio"]; got != bs.HitRatio() {
		t.Errorf("registry hit_ratio = %v, want %v", got, bs.HitRatio())
	}
}

// TestFlushInvalidationsAreRanged reruns the flush-churn scenario and pins
// down the granularity: every code-cache flush reaches the block cache as a
// ranged (partial) invalidation scoped to the flushed cache's pages — never
// as a whole-address-space drop — and the legacy counter remains the sum of
// the split counters.
func TestFlushInvalidationsAreRanged(t *testing.T) {
	mod := testprogs.CallChain(12)
	bin, err := compiler.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.CodeCacheSize = 2048
	cfg.MigrateProb = 0
	cfg.DualTranslate = false
	vm := runVM(t, bin, isa.X86, cfg)
	if vm.Stats.Flushes == 0 {
		t.Fatal("expected code cache flushes with a 2 KiB cache")
	}
	bs := vm.P.M.BlockStats()
	if bs.PartialInvalidations == 0 {
		t.Fatalf("flush churn produced no partial invalidations: %+v", bs)
	}
	if bs.FullInvalidations != 0 {
		t.Fatalf("flushes fell back to whole-cache invalidation %d times: %+v",
			bs.FullInvalidations, bs)
	}
	if bs.Invalidations != bs.PartialInvalidations+bs.FullInvalidations {
		t.Fatalf("legacy invalidations %d != partial %d + full %d",
			bs.Invalidations, bs.PartialInvalidations, bs.FullInvalidations)
	}
	if bs.BlocksEvicted == 0 {
		t.Fatalf("flush churn evicted no blocks: %+v", bs)
	}
}

// TestCrossISAChurnStaysPartial runs with dual translation and forced
// migration on every security event, so both ISAs' code caches see commits
// and flushes, and verifies the invalidation traffic never widens to a
// whole-cache drop while execution stays correct.
func TestCrossISAChurnStaysPartial(t *testing.T) {
	mod := testprogs.CallChain(12)
	bin, err := compiler.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dbt.DefaultConfig()
	cfg.CodeCacheSize = 4096
	cfg.RATSize = 4 // force RAT misses -> security events -> migrations
	cfg.MigrateProb = 1
	cfg.DualTranslate = true
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	vm.Migrator = migrate.New()
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if !vm.P.Exited {
		t.Fatal("program did not exit")
	}
	if vm.Stats.Migrations == 0 {
		t.Skip("no migrations occurred; cross-ISA churn not exercised")
	}
	bs := vm.P.M.BlockStats()
	if bs.FullInvalidations != 0 {
		t.Fatalf("cross-ISA churn triggered %d whole-cache invalidations: %+v",
			bs.FullInvalidations, bs)
	}
	want := uint32(7 + 11*12/2)
	if vm.P.ExitCode != want {
		t.Fatalf("result corrupted across cross-ISA churn: %d != %d", vm.P.ExitCode, want)
	}
}
