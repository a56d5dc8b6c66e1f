package dbt_test

import (
	"runtime"
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/isa"
)

// bootAllocBudget bounds the heap bytes one dbt.New may allocate. Mapped
// memory is demand-zero, so the 2 MiB code cache per ISA and the stack
// and heap cost page-table entries, not page bytes, until first written.
const bootAllocBudget = 1 << 20

// TestVMBootAllocBudget: booting a PSR VM must not pay for the memory it
// maps but never touches. The figure is the TotalAlloc delta averaged over
// several boots, after one warm-up boot fills the shared translation cache.
func TestVMBootAllocBudget(t *testing.T) {
	bin, _ := compile(t, "fib")
	boot := func() {
		if _, err := dbt.New(bin, isa.X86, dbt.Config{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	boot()
	const boots = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < boots; i++ {
		boot()
	}
	runtime.ReadMemStats(&after)
	perBoot := (after.TotalAlloc - before.TotalAlloc) / boots
	t.Logf("dbt.New: %d KiB allocated per boot", perBoot>>10)
	if perBoot >= bootAllocBudget {
		t.Fatalf("dbt.New allocates %d KiB per boot, budget %d KiB", perBoot>>10, bootAllocBudget>>10)
	}
}
