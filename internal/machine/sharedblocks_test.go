package machine

import (
	"encoding/binary"
	"reflect"
	"testing"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
)

// countdownThen42 loops 200 times, then sets eax = 42 and halts. Every
// block it decodes ends at a terminator, so all of them are publishable.
func countdownThen42(a *isa.Asm) {
	a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.ECX), Src: isa.I(200)})
	a.Label("loop")
	a.Emit(isa.Inst{Op: isa.OpDec, Dst: isa.R(isa.ECX)})
	a.Emit(isa.Inst{Op: isa.OpCmp, Dst: isa.R(isa.ECX), Src: isa.I(0)})
	a.Jcc(isa.CondNE, "loop")
	a.Label("done")
	a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.EAX), Src: isa.I(42)})
	a.Emit(isa.Inst{Op: isa.OpHlt})
}

// image maps code at textBase (text spans whole pages) plus a stack.
func image(t *testing.T, code []byte, textPages uint32) *mem.Memory {
	t.Helper()
	ram := mem.New()
	ram.Map("text", textBase, textPages*mem.PageSize, mem.PermRX)
	ram.WriteForce(textBase, code)
	ram.Map("stack", stackTop-stackSize, stackSize, mem.PermRW)
	return ram
}

// restart rewinds m to the program entry with a fresh stack pointer.
func restart(m *Machine, pc uint32) {
	m.State = State{ISA: m.ISA, PC: pc}
	m.SetSP(stackTop - 16)
}

// tableCopy deep-copies every published body, keyed like the table.
func tableCopy(tab *SharedBlocks) map[blockRef][]sharedBody {
	out := make(map[blockRef][]sharedBody)
	for key, cands := range tab.bodies {
		for _, sb := range cands {
			out[key] = append(out[key], sharedBody{
				blockBody: blockBody{
					Insts: append([]isa.Inst(nil), sb.Insts...),
					Fused: append([]isa.FusedInst(nil), sb.Fused...),
				},
				code: append([]byte(nil), sb.code...),
			})
		}
	}
	return out
}

// TestSharedBlocksParityAndIsolation runs two machines forked from one
// memory snapshot and sharing one table, plus a standalone machine. All
// three must end identically — sharing changes who decodes, never what a
// machine observes. Then one fork patches code a shared body covers: it
// must run its new bytes while its sibling keeps the original ones and
// the published body stays untouched.
func TestSharedBlocksParityAndIsolation(t *testing.T) {
	a := isa.NewAsm(isa.X86, textBase)
	countdownThen42(a)
	code, labels, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	done := labels["done"]
	if code[done-textBase] != 0xB8 {
		t.Fatalf("layout drifted: mov eax,imm32 not at done (got %#x)", code[done-textBase])
	}

	snap := image(t, code, 1).Snapshot()
	tab := new(SharedBlocks)
	forkA, forkB := New(isa.X86, snap.Fork()), New(isa.X86, snap.Fork())
	forkA.ShareBlocks(tab)
	forkB.ShareBlocks(tab)
	alone := New(isa.X86, image(t, code, 1))
	ms := []*Machine{forkA, forkB, alone}
	for _, m := range ms {
		restart(m, textBase)
		mustRun(t, m)
	}

	want := alone.BlockStats()
	if want.SharedHits != 0 {
		t.Fatalf("standalone machine reports %d shared hits", want.SharedHits)
	}
	for i, m := range ms[:2] {
		if m.State != alone.State {
			t.Fatalf("fork %d state %+v, standalone %+v", i, m.State, alone.State)
		}
		got := m.BlockStats()
		got.SharedHits = 0
		if got != want {
			t.Fatalf("fork %d block stats %+v, standalone %+v", i, got, want)
		}
		if f := m.FusionStats(); f != alone.FusionStats() {
			t.Fatalf("fork %d fusion stats %+v, standalone %+v", i, f, alone.FusionStats())
		}
	}
	if h := forkA.BlockStats().SharedHits; h != 0 {
		t.Fatalf("first fork served %d refills from an empty table", h)
	}
	if bs := forkB.BlockStats(); bs.SharedHits != bs.Misses {
		t.Fatalf("second fork decoded: %d of %d refills shared", bs.SharedHits, bs.Misses)
	}

	before := tableCopy(tab)
	var imm [4]byte
	binary.LittleEndian.PutUint32(imm[:], 99)
	forkA.Mem.WriteForce(done+1, imm[:])
	// Drop B's cache too, so its refill has to pick among the table's
	// candidates for done: the original body and the one A just decoded.
	forkB.Mem.InvalidateCode()
	for _, m := range ms[:2] {
		restart(m, textBase)
		mustRun(t, m)
	}
	if got := forkA.Regs[isa.EAX]; got != 99 {
		t.Fatalf("patched fork: eax = %d, want 99", got)
	}
	if got := forkB.Regs[isa.EAX]; got != 42 {
		t.Fatalf("sibling fork: eax = %d, want the original 42", got)
	}
	after := tableCopy(tab)
	for key, cands := range before {
		if !reflect.DeepEqual(after[key][:len(cands)], cands) {
			t.Fatalf("published body at %#x changed", key.pc)
		}
	}
	if n := len(tab.bodies[blockRef{pc: done, k: isa.X86}]); n != 2 {
		t.Fatalf("done has %d candidates, want the original and the patched body", n)
	}
}

// TestSharedBlocksKeepsShortBlocksPrivate: a block cut short by an
// undecodable byte or by a fetch window ending at an unmapped page
// depends on bytes beyond it, so it must not be published. A sibling
// whose bytes continue validly decodes the full-length block.
func TestSharedBlocksKeepsShortBlocksPrivate(t *testing.T) {
	a := isa.NewAsm(isa.X86, textBase)
	a.Emit(isa.Inst{Op: isa.OpMov, Dst: isa.R(isa.EAX), Src: isa.I(7)})
	a.Emit(isa.Inst{Op: isa.OpHlt})
	full, _, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	movLen := len(full) - 1
	bad := badX86Byte(t)

	cases := []struct {
		name  string
		entry uint32 // where the mov starts
		short func(entry uint32) *mem.Memory
	}{
		{"undecodable byte", textBase, func(entry uint32) *mem.Memory {
			return image(t, append(append([]byte(nil), full[:movLen]...), bad), 1)
		}},
		{"fetch window ends at unmapped page", textBase + mem.PageSize - uint32(movLen),
			func(entry uint32) *mem.Memory {
				ram := image(t, nil, 1)
				ram.WriteForce(entry, full[:movLen])
				return ram
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := new(SharedBlocks)
			short := New(isa.X86, tc.short(tc.entry))
			short.ShareBlocks(tab)
			restart(short, tc.entry)
			if _, err := short.Run(100); err == nil {
				t.Fatal("short block ran past its end without faulting")
			}
			if short.Regs[isa.EAX] != 7 {
				t.Fatalf("short block did not execute its mov: eax = %d", short.Regs[isa.EAX])
			}
			if n := len(tab.bodies[blockRef{pc: tc.entry, k: isa.X86}]); n != 0 {
				t.Fatalf("short block published (%d candidates)", n)
			}

			ram := image(t, nil, 2)
			ram.WriteForce(tc.entry, full)
			sib := New(isa.X86, ram)
			sib.ShareBlocks(tab)
			restart(sib, tc.entry)
			mustRun(t, sib)
			if got := len(sib.blocks.blocks[isa.X86][tc.entry].Insts); got != 2 {
				t.Fatalf("sibling's block has %d instructions, want mov+hlt", got)
			}
			if bs := sib.BlockStats(); bs.SharedHits != 0 || bs.Misses != 1 {
				t.Fatalf("sibling refills: %d shared of %d, want one decode", bs.SharedHits, bs.Misses)
			}
		})
	}
}

// badX86Byte finds an opcode byte the x86 decoder rejects.
func badX86Byte(t *testing.T) byte {
	t.Helper()
	for b := 0; b < 256; b++ {
		if _, err := isa.Decode(isa.X86, []byte{byte(b), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, textBase); err != nil {
			return byte(b)
		}
	}
	t.Fatal("every x86 opcode byte decodes")
	return 0
}
