package proc_test

import (
	"runtime"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/isa"
	"hipstr/internal/proc"
	"hipstr/internal/testprogs"
)

// bootAllocBudget bounds the heap bytes one proc.New may allocate. The
// stack and heap are mapped demand-zero, so only the pages the loader
// writes (text and data) cost page bytes.
const bootAllocBudget = 512 << 10

// TestBootAllocBudget: a native boot must not pay for the memory it maps
// but never touches. The figure is the TotalAlloc delta averaged over
// several boots.
func TestBootAllocBudget(t *testing.T) {
	bin, err := compiler.Compile(testprogs.Fib(12))
	if err != nil {
		t.Fatal(err)
	}
	boot := func() {
		if _, err := proc.New(bin, isa.X86); err != nil {
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
	t.Logf("proc.New: %d KiB allocated per boot", perBoot>>10)
	if perBoot >= bootAllocBudget {
		t.Fatalf("proc.New allocates %d KiB per boot, budget %d KiB", perBoot>>10, bootAllocBudget>>10)
	}
}
