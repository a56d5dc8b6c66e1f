package dbt_test

import (
	"testing"

	"hipstr/internal/dbt"
	"hipstr/internal/isa"
)

// TestResolvePC checks the execution-PC → guest-source mapping the
// sampling profiler depends on: cache PCs anywhere inside a translation
// unit resolve to a source address that symbolizes, unit entries and
// guest text PCs are not trap stubs, guest text PCs resolve to themselves,
// and everything else reports failure.
func TestResolvePC(t *testing.T) {
	bin, _ := compile(t, "nested")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm := runVM(t, bin, isa.X86, cfg)

	cache := vm.Cache(isa.X86)
	if cache.NumUnits() == 0 {
		t.Fatal("no translations to resolve against")
	}
	resolved := 0
	for _, src := range cache.TranslatedSources() {
		cacheAddr, ok := cache.Lookup(src)
		if !ok {
			continue
		}
		// Probe the unit entry and an interior PC: both must map back.
		for _, pc := range []uint32{cacheAddr, cacheAddr + 2} {
			got, _, ok := vm.ResolvePC(isa.X86, pc)
			if !ok {
				t.Fatalf("ResolvePC(%#x) failed for unit of %#x", pc, src)
			}
			if fn := bin.FuncAt(isa.X86, got); fn == nil {
				t.Fatalf("ResolvePC(%#x) = %#x does not symbolize", pc, got)
			}
		}
		got, stub, _ := vm.ResolvePC(isa.X86, cacheAddr)
		if got != src {
			t.Errorf("unit entry %#x resolved to %#x, want %#x", cacheAddr, got, src)
		}
		if stub {
			t.Errorf("unit entry %#x classified as a trap stub", cacheAddr)
		}
		resolved++
	}
	if resolved == 0 {
		t.Fatal("no units exercised")
	}

	// Guest text addresses are their own source.
	entry := bin.Funcs[0].Entry[isa.X86]
	if got, stub, ok := vm.ResolvePC(isa.X86, entry); !ok || stub || got != entry {
		t.Errorf("text PC %#x resolved to (%#x, stub %v, %v), want identity", entry, got, stub, ok)
	}

	// Unallocated cache space and arbitrary addresses do not resolve.
	if _, _, ok := vm.ResolvePC(isa.X86, cache.Base+cache.Size-4); ok {
		t.Error("unallocated cache tail resolved")
	}
	if _, _, ok := vm.ResolvePC(isa.X86, 0x10); ok {
		t.Error("junk address resolved")
	}
}

// TestUnitAtFlush pins that a flush forgets every unit mapping.
func TestUnitAtFlush(t *testing.T) {
	bin, _ := compile(t, "sumloop")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm := runVM(t, bin, isa.ARM, cfg)
	cache := vm.Cache(isa.ARM)
	if cache.NumUnits() == 0 {
		t.Fatal("no translations")
	}
	var any uint32
	for _, src := range cache.TranslatedSources() {
		any, _ = cache.Lookup(src)
		break
	}
	if _, ok := cache.UnitAt(any); !ok {
		t.Fatalf("UnitAt(%#x) failed pre-flush", any)
	}
	cache.Flush()
	if _, ok := cache.UnitAt(any); ok {
		t.Error("UnitAt resolved after flush")
	}
}
