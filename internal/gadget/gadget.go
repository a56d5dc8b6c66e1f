// Package gadget implements Galileo-style gadget mining (Shacham 2007) and
// concrete gadget-effect analysis for both ISAs of the fat binary.
//
// On the x86-like ISA every byte offset is a potential decode start, so
// unintentional gadgets (unaligned suffixes ending in a 0xC3 ret byte or an
// indirect-branch encoding) dominate the attack surface. The ARM-like ISA
// only decodes at aligned word boundaries with a strict decoder, which
// shrinks its surface by well over an order of magnitude — the asymmetry
// §5.5 of the paper measures.
package gadget

import (
	"fmt"
	"slices"
	"sort"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
)

// EnderKind classifies a gadget's terminating instruction.
type EnderKind uint8

const (
	EndRet EnderKind = iota
	EndJmpInd
	EndCallInd
	EndPopPC
	EndBx
)

func (e EnderKind) String() string {
	switch e {
	case EndRet:
		return "ret"
	case EndJmpInd:
		return "jmp*"
	case EndCallInd:
		return "call*"
	case EndPopPC:
		return "pop{pc}"
	case EndBx:
		return "bx"
	}
	return "?"
}

// Gadget is a short instruction sequence ending in an indirect control
// transfer.
type Gadget struct {
	ISA     isa.Kind
	Addr    uint32
	Len     int // instruction count, including the ender
	Bytes   int
	Ender   EnderKind
	Aligned bool // starts on a legitimate instruction boundary
	Func    string
	Instrs  []isa.Inst
}

func (g *Gadget) String() string {
	return fmt.Sprintf("%s@%#x[%d insts, %s]", g.ISA, g.Addr, g.Len, g.Ender)
}

// MaxInstrs is the default gadget length bound (short sequences are the
// useful ones; Galileo uses a comparable window).
const MaxInstrs = 5

// maxX86Lookback bounds the backward byte scan per ender.
const maxX86Lookback = 24

// Mine discovers every gadget in bin's ISA-k text section with at most
// maxInstrs instructions.
func Mine(bin *fatbin.Binary, k isa.Kind, maxInstrs int) []Gadget {
	if maxInstrs <= 0 {
		maxInstrs = MaxInstrs
	}
	if k == isa.X86 {
		return mineX86(bin, maxInstrs)
	}
	return mineARM(bin, maxInstrs)
}

// legitBoundaries decodes the official instruction stream and returns the
// set of legitimate instruction-start addresses.
func legitBoundaries(bin *fatbin.Binary, k isa.Kind) map[uint32]bool {
	out := make(map[uint32]bool)
	text := bin.Text[k]
	base := fatbin.TextBase(k)
	for _, f := range bin.Funcs {
		addr := f.Start[k]
		for addr < f.End[k] {
			out[addr] = true
			in, err := isa.Decode(k, text[addr-base:], addr)
			if err != nil {
				addr++ // alignment padding
				continue
			}
			addr += uint32(in.Size)
		}
	}
	return out
}

// enderOf classifies a decoded instruction as a gadget terminator.
func enderOf(in *isa.Inst) (EnderKind, bool) {
	switch in.Op {
	case isa.OpRet:
		return EndRet, true
	case isa.OpJmpI:
		return EndJmpInd, true
	case isa.OpCallI:
		return EndCallInd, true
	case isa.OpBx:
		return EndBx, true
	case isa.OpPopM:
		if in.RegMask&(1<<isa.PC) != 0 {
			return EndPopPC, true
		}
	}
	return 0, false
}

// decodeRun decodes from start, accepting sequences whose only control
// transfer is a final ender at enderEnd. Returns the instructions or nil.
// The instructions are decoded into scratch[:0] and alias it, so miners
// reuse one buffer across candidate starts and clone only accepted runs;
// with cap(scratch) > maxInstrs the buffer never grows.
func decodeRun(text []byte, base uint32, k isa.Kind, start, enderEnd uint32, maxInstrs int, scratch []isa.Inst) []isa.Inst {
	instrs := scratch[:0]
	addr := start
	for addr < enderEnd && len(instrs) <= maxInstrs {
		off := addr - base
		if off >= uint32(len(text)) {
			return nil
		}
		in, err := isa.Decode(k, text[off:], addr)
		if err != nil {
			return nil
		}
		next := addr + uint32(in.Size)
		if _, isEnder := enderOf(&in); isEnder {
			if next == enderEnd {
				return append(instrs, in)
			}
			return nil // indirect transfer mid-sequence
		}
		if in.Op.IsControl() && in.Op != isa.OpSys {
			return nil // direct transfer breaks the chain
		}
		instrs = append(instrs, in)
		addr = next
	}
	return nil
}

func mineX86(bin *fatbin.Binary, maxInstrs int) []Gadget {
	text := bin.Text[isa.X86]
	base := uint32(fatbin.X86TextBase)
	legit := legitBoundaries(bin, isa.X86)
	var out []Gadget
	seen := make(map[uint32]bool)
	scratch := make([]isa.Inst, 0, maxInstrs+1)
	for off := 0; off < len(text); off++ {
		addr := base + uint32(off)
		in, err := isa.DecodeX86(text[off:], addr)
		if err != nil {
			continue
		}
		ender, ok := enderOf(&in)
		if !ok {
			continue
		}
		enderEnd := addr + uint32(in.Size)
		// The ender alone is a gadget; so is every decodable backward
		// extension within the lookback window.
		for lb := 0; lb <= maxX86Lookback; lb++ {
			start := addr - uint32(lb)
			if int(start)-int(base) < 0 {
				break
			}
			if seen[start] {
				continue
			}
			instrs := decodeRun(text, base, isa.X86, start, enderEnd, maxInstrs, scratch)
			if instrs == nil {
				continue
			}
			seen[start] = true
			fn := bin.FuncAt(isa.X86, start)
			name := ""
			if fn != nil {
				name = fn.Name
			}
			out = append(out, Gadget{
				ISA:     isa.X86,
				Addr:    start,
				Len:     len(instrs),
				Bytes:   int(enderEnd - start),
				Ender:   ender,
				Aligned: legit[start],
				Func:    name,
				Instrs:  slices.Clone(instrs),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func mineARM(bin *fatbin.Binary, maxInstrs int) []Gadget {
	text := bin.Text[isa.ARM]
	base := uint32(fatbin.ARMTextBase)
	legit := legitBoundaries(bin, isa.ARM)
	var out []Gadget
	scratch := make([]isa.Inst, 0, maxInstrs+1)
	for off := 0; off+4 <= len(text); off += 4 {
		addr := base + uint32(off)
		in, err := isa.DecodeARM(text[off:], addr)
		if err != nil {
			continue
		}
		ender, ok := enderOf(&in)
		if !ok {
			continue
		}
		enderEnd := addr + 4
		for lb := 0; lb <= maxInstrs-1; lb++ {
			start := addr - uint32(4*lb)
			if int(start)-int(base) < 0 {
				break
			}
			instrs := decodeRun(text, base, isa.ARM, start, enderEnd, maxInstrs, scratch)
			if instrs == nil {
				continue
			}
			fn := bin.FuncAt(isa.ARM, start)
			name := ""
			if fn != nil {
				name = fn.Name
			}
			out = append(out, Gadget{
				ISA:     isa.ARM,
				Addr:    start,
				Len:     len(instrs),
				Bytes:   int(enderEnd - start),
				Ender:   ender,
				Aligned: legit[start],
				Func:    name,
				Instrs:  slices.Clone(instrs),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Summary aggregates a mined gadget population.
type Summary struct {
	Total     int
	Unaligned int
	ByEnder   map[EnderKind]int
	WithSys   int
}

// Summarize aggregates counts over gs.
func Summarize(gs []Gadget) Summary {
	s := Summary{ByEnder: make(map[EnderKind]int)}
	for i := range gs {
		g := &gs[i]
		s.Total++
		if !g.Aligned {
			s.Unaligned++
		}
		s.ByEnder[g.Ender]++
		for j := range g.Instrs {
			if g.Instrs[j].Op == isa.OpSys {
				s.WithSys++
				break
			}
		}
	}
	return s
}
