// Package psr implements Program State Relocation: per-function relocation
// maps that randomize calling conventions, register allocation, and stack
// slot coloring (paper §3.4, §5.1). The PSR virtual machine (package dbt)
// applies these maps while translating basic blocks; legitimate execution
// always finds state at the (consistently) relocated locations, while a
// ROP gadget that strays from legitimate control flow reads and writes the
// wrong places.
package psr

import (
	"fmt"
	"math"
	"math/rand"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
)

// Config controls the randomization space and optimization-relevant
// behavior of map construction.
type Config struct {
	// RandPages is the randomization space added to every frame, in 4 KiB
	// pages (paper: 2..16 pages, i.e. 13..16 bits of entropy per
	// parameter). Default 2 (8 KiB).
	RandPages int
	// RegisterBias, when set (the -O3 mode), forces at least three
	// architectural registers to relocate to other registers rather than
	// to stack slots.
	RegisterBias bool
	// GlobalRegCache, when > 0 (the -O2 mode), reserves this many
	// register-to-register relocations for the hottest registers; it is
	// fixed at 3 in the paper.
	GlobalRegCache int
	// PruneBoundaryMarshal (the O1+ "eliminate redundant caller/callee
	// register save and restore" optimization) limits call-boundary
	// marshaling to registers carrying live values across boundaries:
	// the callee-saved class plus the return register.
	PruneBoundaryMarshal bool
}

// DefaultConfig mirrors the paper's main configuration: 8 KiB frames,
// 3-entry global register cache, register bias on.
func DefaultConfig() Config {
	return Config{RandPages: 2, RegisterBias: true, GlobalRegCache: 3}
}

// RandSpace returns the randomization space in bytes.
func (c Config) RandSpace() uint32 {
	p := c.RandPages
	if p <= 0 {
		p = 2
	}
	return uint32(p) * 4096
}

// ArgWindow is the region at the bottom of every translated frame reserved
// for randomized outgoing-argument placement. Callee argument offsets are
// drawn from [ArgReserved, ArgWindow): the first ArgReserved bytes are
// left untouched because fixed (address-taken) stack slots keep their
// canonical offsets there in every caller's frame.
const (
	ArgWindow   = 1024
	ArgReserved = 128
)

// reservedWords is the size of the staging and marshaling areas carved out
// of the randomization space (indirect-call argument staging + syscall
// register marshaling).
const (
	stageWords = 8
	tempWords  = 16
)

// LocKind discriminates Loc.
type LocKind uint8

const (
	LocReg LocKind = iota
	LocStack
)

// Loc is a relocated location: a register or an SP-relative stack offset
// in the translated frame.
type Loc struct {
	Kind LocKind
	Reg  isa.Reg
	Off  int32
}

func (l Loc) String() string {
	if l.Kind == LocReg {
		return fmt.Sprintf("r%d", uint8(l.Reg))
	}
	return fmt.Sprintf("[sp+%#x]", l.Off)
}

// RegLoc and StackLoc are Loc constructors.
func RegLoc(r isa.Reg) Loc   { return Loc{Kind: LocReg, Reg: r} }
func StackLoc(off int32) Loc { return Loc{Kind: LocStack, Off: off} }

// PruneBoundaryMarshal, when set on the map (from the O1+ optimization
// "eliminate redundant caller/callee register save and restore"), limits
// call-boundary marshaling to registers with live values at boundaries:
// the callee-saved class and the return register.
//
// Map is the relocation map of one function on one ISA (Figure 2): the
// randomized calling convention, register reallocation, and stack slot
// coloring rules every translation of the function's blocks must follow.
type Map struct {
	Fn  *fatbin.FuncMeta
	ISA isa.Kind

	RandSpace    uint32
	NewFrameSize uint32 // Fn.FrameSize + RandSpace

	// OffTo relocates canonical frame offsets (relocatable slots, vreg
	// homes, the return-address word) to randomized offsets. Fixed
	// (address-taken) slots map to themselves.
	OffTo map[int32]int32
	// RegTo relocates architectural registers. Identity entries mean "not
	// relocated"; stack entries move the register into the frame.
	RegTo [16]Loc
	// FreeRegs are physical registers left unoccupied by RegTo — the
	// translator's temporaries.
	FreeRegs []isa.Reg
	// RetOff is the relocated return-address offset (OffTo of the
	// canonical return-address slot).
	RetOff int32
	// ArgOff[i] is the randomized calling convention: incoming argument i
	// lives at caller-frame offset ArgOff[i] (drawn from [0, ArgWindow)),
	// i.e. callee offset NewFrameSize+ArgOff[i].
	ArgOff []int32
	// StageOff is the canonical staging area used when the callee of an
	// indirect call is unknown at translation time; the VM relocates the
	// staged arguments at dispatch.
	StageOff int32
	// TempOff is the marshaling scratch area for instructions with
	// physical register requirements (syscalls, x86 div/shift).
	TempOff int32

	// EntropyBits is the average entropy per randomized parameter, and
	// Params the number of randomizable parameters, for the Table 2
	// accounting.
	EntropyBits float64
	Params      int

	// PruneBoundary mirrors Config.PruneBoundaryMarshal for the
	// translator.
	PruneBoundary bool
}

// LocOfReg returns the relocated location of architectural register r.
func (m *Map) LocOfReg(r isa.Reg) Loc { return m.RegTo[r&0xF] }

// Relocated reports whether register r moved.
func (m *Map) Relocated(r isa.Reg) bool {
	l := m.RegTo[r&0xF]
	return !(l.Kind == LocReg && l.Reg == r)
}

// Randomizer builds relocation maps from a seedable entropy source. The
// production configuration would use a CSPRNG; experiments seed it for
// reproducibility.
type Randomizer struct {
	rng *rand.Rand
	cfg Config
}

// NewRandomizer returns a Randomizer with the given seed and config.
func NewRandomizer(seed int64, cfg Config) *Randomizer {
	return &Randomizer{rng: rand.New(rand.NewSource(seed)), cfg: cfg}
}

// Config returns the randomizer's configuration.
func (r *Randomizer) Config() Config { return r.cfg }

// relocatableRegs lists the architectural registers PSR may relocate on
// ISA k. The stack pointer never moves; neither do ARM's LR/PC (the
// return path is relocated via the return-address slot instead), nor R12
// (the translator's address-legalization scratch).
func relocatableRegs(k isa.Kind) []isa.Reg {
	if k == isa.X86 {
		return []isa.Reg{isa.EAX, isa.ECX, isa.EDX, isa.EBX, isa.EBP, isa.ESI, isa.EDI}
	}
	return []isa.Reg{isa.R0, isa.R1, isa.R2, isa.R3, isa.R4, isa.R5,
		isa.R6, isa.R7, isa.R8, isa.R9, isa.R10, isa.R11}
}

// x86SpecialRegs may host only themselves (or be spilled to stack): the
// translator's fixups for implicit-register instructions (div, variable
// shifts) rely on being able to reload them without displacing another
// architectural register's home.
var x86SpecialRegs = map[isa.Reg]bool{isa.EAX: true, isa.ECX: true, isa.EDX: true}

// BuildPair builds the relocation maps of fn for both ISAs with a common
// randomization-space size, as the PSR virtual machines translate each
// compulsory miss for both ISAs (paper §3.5).
func (r *Randomizer) BuildPair(fn *fatbin.FuncMeta) [2]*Map {
	var out [2]*Map
	for _, k := range isa.Kinds {
		out[k] = r.Build(fn, k)
	}
	return out
}

// Build constructs a fresh relocation map for fn on ISA k.
func (r *Randomizer) Build(fn *fatbin.FuncMeta, k isa.Kind) *Map {
	m := &Map{
		Fn:            fn,
		ISA:           k,
		RandSpace:     r.cfg.RandSpace(),
		OffTo:         make(map[int32]int32),
		PruneBoundary: r.cfg.PruneBoundaryMarshal,
	}
	m.NewFrameSize = fn.FrameSize + m.RandSpace

	// Carve reserved areas out of the top of the randomization space.
	resTop := int32(m.NewFrameSize)
	m.TempOff = resTop - 4*tempWords
	m.StageOff = m.TempOff - 4*stageWords
	lo := int32(ArgWindow) // below: outgoing-arg window
	hi := m.StageOff       // above: staging/temp areas
	if hi <= lo {
		panic("psr: randomization space too small")
	}

	// Fixed (address-taken) slots keep their canonical offsets; mark them
	// occupied so random choices avoid them. They must lie below
	// ArgReserved, where no caller's randomized argument can land.
	occupied := map[int32]bool{}
	for s, fixed := range fn.FixedSlot {
		if fixed {
			off := int32(fn.SlotOff(s))
			if off+4 > ArgReserved {
				panic(fmt.Sprintf("psr: %s: fixed slot at %#x exceeds the reserved window (%#x)",
					fn.Name, off, ArgReserved))
			}
			m.OffTo[off] = off
			occupied[off] = true
		}
	}

	// Stack slot coloring + return-address relocation: every relocatable
	// canonical offset gets a fresh random home in [lo, hi).
	span := hi - lo
	pick := func() int32 {
		for {
			off := lo + int32(r.rng.Intn(int(span)))
			// Word objects must not straddle a reserved boundary.
			if off+4 > hi {
				continue
			}
			conflict := false
			for d := int32(-3); d <= 3; d++ {
				if occupied[off+d] {
					conflict = true
					break
				}
			}
			if !conflict {
				occupied[off] = true
				return off
			}
		}
	}
	relocatable := fn.RelocatableOffsets()
	for _, off := range relocatable {
		m.OffTo[int32(off)] = pick()
	}
	m.RetOff = m.OffTo[int32(fn.RetAddrOff())]

	// Randomized calling convention: argument offsets within the caller's
	// outgoing window. Fixed (address-taken) slots keep canonical offsets
	// that may fall inside the window of any caller, so argument draws
	// avoid the canonical fixed-slot range of every function (a single
	// conservative reservation: the maximum canonical local extent).
	m.ArgOff = make([]int32, fn.NumArgs)
	argUsed := map[int32]bool{}
	for i := range m.ArgOff {
		for {
			off := ArgReserved + int32(r.rng.Intn(ArgWindow-ArgReserved-4))
			ok := true
			for d := int32(-3); d <= 3; d++ {
				if argUsed[off+d] {
					ok = false
					break
				}
			}
			if ok {
				argUsed[off] = true
				m.ArgOff[i] = off
				break
			}
		}
	}

	// Register reallocation. Identity-initialize, then relocate.
	//
	// The x86 "special" registers (EAX/ECX/EDX: implicit operands of div,
	// variable shifts, and the syscall number) may relocate to the stack
	// or stay put, but their physical registers never host a *different*
	// architectural register — this keeps the translator's implicit-
	// operand fixups free of displacement chains.
	//
	// Register-resident relocations (register bias / global register
	// cache) rotate a random subset of the remaining registers among
	// themselves; everything else moves to a random stack slot.
	for i := 0; i < 16; i++ {
		m.RegTo[i] = RegLoc(isa.Reg(i))
	}
	regs := relocatableRegs(k)
	var normal, special []isa.Reg
	for _, reg := range regs {
		if k == isa.X86 && x86SpecialRegs[reg] {
			special = append(special, reg)
		} else {
			normal = append(normal, reg)
		}
	}
	r.rng.Shuffle(len(normal), func(i, j int) { normal[i], normal[j] = normal[j], normal[i] })

	regResident := 0
	if r.cfg.RegisterBias {
		regResident = 3
	}
	if r.cfg.GlobalRegCache > regResident {
		regResident = r.cfg.GlobalRegCache
	}
	if regResident > len(normal) {
		regResident = len(normal)
	}
	resident := normal[:regResident]
	toStack := normal[regResident:]
	if len(resident) > 1 {
		for i, src := range resident {
			m.RegTo[src] = RegLoc(resident[(i+1)%len(resident)])
		}
	}
	for _, reg := range toStack {
		m.RegTo[reg] = StackLoc(pick())
	}
	// Special registers: without the global register cache, all but one
	// (randomly chosen) spill to stack — maximum entropy, heavy traffic.
	// With the cache (the -O2 optimization), the hottest registers — the
	// x86 scratch set is the hottest by construction — stay register-
	// resident: only one random special spills. Spilled specials free
	// their physical registers, guaranteeing the translator the two
	// temporaries its worst-case rewrites require (the second temporary
	// comes from the unrotated portion of the normal pool).
	if len(special) > 0 {
		keepN := 1
		if r.cfg.GlobalRegCache > 0 {
			// The global register cache keeps the hottest registers —
			// the scratch set, by construction of compiled code — in
			// registers; tight loops then run at native register speed.
			keepN = len(special)
		}
		kept := map[int]bool{}
		for len(kept) < keepN {
			kept[r.rng.Intn(len(special))] = true
		}
		for i, reg := range special {
			if !kept[i] {
				m.RegTo[reg] = StackLoc(pick())
			}
		}
	}

	// Free registers: physical registers nobody relocated into.
	hosts := map[isa.Reg]bool{}
	for i := 0; i < 16; i++ {
		if l := m.RegTo[i]; l.Kind == LocReg {
			hosts[l.Reg] = true
		}
	}
	for _, reg := range regs {
		if !hosts[reg] {
			m.FreeRegs = append(m.FreeRegs, reg)
		}
	}
	if k == isa.ARM {
		m.FreeRegs = append(m.FreeRegs, armTemp)
	}
	// Guarantee the translator's temporaries on x86: demote register-
	// resident relocations to the stack until enough physical registers
	// are free. Compiled code needs two temporaries in the worst case;
	// under the global register cache only one register is stack-relocated
	// at a time, so one temporary suffices (the translator degrades
	// gracefully for attacker-crafted operand shapes that would need more).
	minFree := 2
	if r.cfg.GlobalRegCache > 0 {
		minFree = 1
	}
	for k == isa.X86 && len(m.FreeRegs) < minFree {
		victim := toStackVictim(resident, special, m)
		m.RegTo[victim] = StackLoc(pick())
		hosts = map[isa.Reg]bool{}
		for i := 0; i < 16; i++ {
			if l := m.RegTo[i]; l.Kind == LocReg {
				hosts[l.Reg] = true
			}
		}
		m.FreeRegs = nil
		for _, reg := range regs {
			if !hosts[reg] {
				m.FreeRegs = append(m.FreeRegs, reg)
			}
		}
	}

	// Entropy accounting: each stack-relocated object draws from ~span
	// byte positions (13+ bits at 8 KiB); register-resident relocations
	// draw from the register file.
	m.Params = len(relocatable) + len(m.ArgOff)
	stackBits := math.Log2(float64(span))
	m.EntropyBits = stackBits
	return m
}

// armTemp is the ARM translator's dedicated temporary.
const armTemp = isa.R12

// toStackVictim picks a register-resident relocation to demote when the
// map would otherwise leave the translator with no temporary.
func toStackVictim(resident, special []isa.Reg, m *Map) isa.Reg {
	for _, r := range resident {
		if m.RegTo[r].Kind == LocReg {
			return r
		}
	}
	for _, r := range special {
		if m.RegTo[r].Kind == LocReg {
			return r
		}
	}
	panic("psr: no demotable register")
}
