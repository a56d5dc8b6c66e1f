package isa

import (
	"reflect"
	"testing"
)

// FuzzDecodeBlock checks DecodeBlock's contract and FuseBlock's coverage
// on arbitrary bytes at an arbitrary address, for either ISA, plus the
// invariant sharing decoded blocks across machines relies on: a block
// that stopped at a terminator or at max depends on its own bytes alone.
// The seed corpus under testdata is compiled workload text.
func FuzzDecodeBlock(f *testing.F) {
	f.Add(false, []byte{}, uint32(0x1000), uint8(63))
	f.Add(false, []byte{0xc3}, uint32(0x1000), uint8(63))
	f.Add(true, []byte{0x30, 0x30, 0xb4, 0x24}, uint32(0xfffffffc), uint8(0))
	// One seed per way a block stops, each with bytes left over after it.
	movEAX := Inst{Op: OpMov, Dst: R(EAX), Src: I(1)}
	f.Add(false, seedCode(f, movEAX, Inst{Op: OpRet}, movEAX), uint32(0x1000), uint8(63))   // terminator
	f.Add(false, seedCode(f, movEAX, movEAX, movEAX, movEAX), uint32(0x1000), uint8(2))     // cap of 3
	f.Add(false, append(seedCode(f, movEAX), undecodableX86(f)), uint32(0x1000), uint8(63)) // decode error
	f.Fuzz(func(t *testing.T, arm bool, code []byte, addr uint32, maxByte uint8) {
		k := X86
		if arm {
			k = ARM
		}
		max := 1 + int(maxByte)%64
		insts, err := DecodeBlock(k, code, addr, nil, max)
		if err != nil {
			if len(insts) != 0 {
				t.Fatalf("%d instructions returned with error %v", len(insts), err)
			}
			return
		}
		if len(insts) == 0 {
			t.Fatalf("% x at %#x: no instructions and no error", code, addr)
		}
		if len(insts) > max {
			t.Fatalf("%d instructions, max %d", len(insts), max)
		}
		next, used := addr, 0
		for i := range insts {
			in := &insts[i]
			if in.Addr != next {
				t.Fatalf("inst %d at %#x, want %#x", i, in.Addr, next)
			}
			if in.Size == 0 {
				t.Fatalf("inst %d (%s) has size 0", i, in.String())
			}
			next += uint32(in.Size)
			used += int(in.Size)
			if i < len(insts)-1 && in.EndsBlock() {
				t.Fatalf("inst %d (%s) ends the block but %d follow", i, in.String(), len(insts)-1-i)
			}
		}
		if used > len(code) {
			t.Fatalf("instructions span %d bytes of %d", used, len(code))
		}

		fused, pairs := FuseBlock(insts, nil)
		idx, wantPairs := 0, 0
		for j, e := range fused {
			if int(e.A) != idx {
				t.Fatalf("entry %d starts at inst %d, want %d", j, e.A, idx)
			}
			switch e.N {
			case 1:
				idx++
			case 2:
				if e.B != e.A+1 {
					t.Fatalf("pair entry %d fuses insts %d and %d", j, e.A, e.B)
				}
				idx += 2
				wantPairs++
			default:
				t.Fatalf("entry %d retires %d instructions", j, e.N)
			}
		}
		if idx != len(insts) {
			t.Fatalf("entries cover %d of %d instructions", idx, len(insts))
		}
		if pairs != wantPairs {
			t.Fatalf("FuseBlock reported %d pairs, entries hold %d", pairs, wantPairs)
		}

		if len(insts) < max && !insts[len(insts)-1].EndsBlock() {
			return // cut short: depends on the bytes that stopped it
		}
		again, err := DecodeBlock(k, code[:used], addr, nil, max)
		if err != nil || !reflect.DeepEqual(again, insts) {
			t.Fatalf("% x at %#x: decoding only the block's %d bytes gave %v (err %v), want %v",
				code, addr, used, again, err, insts)
		}
		fusedAgain, pairsAgain := FuseBlock(again, nil)
		if !reflect.DeepEqual(fusedAgain, fused) || pairsAgain != pairs {
			t.Fatalf("% x at %#x: fusing the re-decoded block differs", code, addr)
		}
	})
}

// seedCode assembles x86 instructions at 0x1000 for a fuzz seed.
func seedCode(f *testing.F, insts ...Inst) []byte {
	a := NewAsm(X86, 0x1000)
	for _, in := range insts {
		a.Emit(in)
	}
	code, _, err := a.Assemble()
	if err != nil {
		f.Fatal(err)
	}
	return code
}

// undecodableX86 returns an opcode byte the x86 decoder rejects.
func undecodableX86(f *testing.F) byte {
	for b := 0; b < 256; b++ {
		if _, err := Decode(X86, append([]byte{byte(b)}, make([]byte, 15)...), 0x1000); err != nil {
			return byte(b)
		}
	}
	f.Fatal("every x86 opcode byte decodes")
	return 0
}
