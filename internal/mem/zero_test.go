package mem

import (
	"sync"
	"testing"
)

// checkZeroPage fails the test if any byte of the shared zero page was
// ever written.
func checkZeroPage(t testing.TB) {
	t.Helper()
	for i, b := range zeroPage {
		if b != 0 {
			t.Fatalf("zeroPage[%#x] = %#x: a write reached the shared zero page", i, b)
		}
	}
}

// TestDemandZeroFirstWrite: a freshly mapped page reads as zeros and its
// first write allocates without counting a copy-on-write break.
func TestDemandZeroFirstWrite(t *testing.T) {
	m := New()
	m.Map("data", 0x1000, 2*PageSize, PermRWX)
	buf := make([]byte, 2*PageSize)
	for i := range buf {
		buf[i] = 0xFF
	}
	if err := m.Read(0x1000, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("fresh page byte %#x = %#x, want 0", i, b)
		}
	}
	code, err := m.Fetch(0x1000, 8)
	if err != nil || len(code) != 8 || code[0] != 0 {
		t.Fatalf("fetch of fresh page: % x, %v", code, err)
	}
	if err := m.Write(0x1000+PageSize-2, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if m.CowBroken() != 0 || m.SharedPages() != 0 {
		t.Fatalf("first write: broken=%d shared=%d, want 0/0", m.CowBroken(), m.SharedPages())
	}
	if v, _ := m.ReadWord(0x1000 + PageSize - 2); v != 0x04030201 {
		t.Fatalf("read back %#x", v)
	}
	// WriteForce into an unmapped page maps it demand-zero, then owns it.
	m.WriteForce(0x9000, []byte{7})
	if m.CowBroken() != 0 || m.SharedPages() != 0 {
		t.Fatalf("WriteForce: broken=%d shared=%d, want 0/0", m.CowBroken(), m.SharedPages())
	}
	checkZeroPage(t)
}

// TestDemandZeroSnapshotCountsBreak: Snapshot turns a never-written page
// into an ordinary shared page, so a fork writing it counts exactly one
// break and the source keeps reading zeros.
func TestDemandZeroSnapshotCountsBreak(t *testing.T) {
	m := New()
	m.Map("data", 0, PageSize, PermRW)
	s := m.Snapshot()
	if m.SharedPages() != 1 {
		t.Fatalf("source shared pages after snapshot = %d, want 1", m.SharedPages())
	}
	f := s.Fork()
	if err := f.WriteWord(0x10, 0xCAFEF00D); err != nil {
		t.Fatal(err)
	}
	if f.CowBroken() != 1 || f.SharedPages() != 0 {
		t.Fatalf("fork: broken=%d shared=%d, want 1/0", f.CowBroken(), f.SharedPages())
	}
	if v, _ := m.ReadWord(0x10); v != 0 {
		t.Fatalf("source sees fork write: %#x", v)
	}
	if v, _ := s.Fork().ReadWord(0x10); v != 0 {
		t.Fatalf("snapshot sees fork write: %#x", v)
	}
	if m.CowBroken() != 0 {
		t.Fatalf("source broken=%d, want 0", m.CowBroken())
	}
	checkZeroPage(t)
}

// TestDemandZeroReprotectBumpsGen: re-permissioning a never-written
// executable page must still move its code generation.
func TestDemandZeroReprotectBumpsGen(t *testing.T) {
	m := New()
	m.Map("text", 0x4000, PageSize, PermRX)
	pn := uint32(0x4000 / PageSize)
	g0 := m.PageGen(pn)
	m.Protect(0x4000, PageSize, PermR)
	if g1 := m.PageGen(pn); g1 <= g0 || g1 != m.CodeGen() {
		t.Fatalf("Protect: page gen %d -> %d (code gen %d)", g0, g1, m.CodeGen())
	}
	g1 := m.PageGen(pn)
	m.Map("text", 0x4000, PageSize, PermRWX)
	if g2 := m.PageGen(pn); g2 <= g1 || g2 != m.CodeGen() {
		t.Fatalf("re-Map: page gen %d -> %d (code gen %d)", g1, g2, m.CodeGen())
	}
}

// TestZeroPageSurvivesForkRace runs the fork race hammer, then hammers
// forks whose snapshot pages were never written, and checks the shared
// zero page is still all zeros.
func TestZeroPageSurvivesForkRace(t *testing.T) {
	t.Run("hammer", TestForkRaceHammer)
	m := New()
	m.Map("data", 0, 8*PageSize, PermRW)
	s := m.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id byte) {
			defer wg.Done()
			f := s.Fork()
			fresh := New()
			fresh.Map("data", 0, 8*PageSize, PermRW)
			for i := uint32(0); i < 64; i++ {
				addr := (i%8)*PageSize + i
				if err := f.StoreByte(addr, id); err != nil {
					t.Error(err)
				}
				if err := fresh.StoreByte(addr, id); err != nil {
					t.Error(err)
				}
			}
		}(byte(w + 1))
	}
	wg.Wait()
	checkZeroPage(t)
}
