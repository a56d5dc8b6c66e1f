package isa

import (
	"fmt"
	"strings"
)

// Op is the architecture-neutral semantic opcode of a decoded instruction.
// Both decoders produce Insts over this shared vocabulary so the machine
// interpreter, the gadget analyzer, and the PSR translator can reason about
// either ISA uniformly.
type Op uint8

const (
	OpInvalid Op = iota
	OpNop
	OpMov   // dst = src
	OpAdd   // dst = (src2|dst) + src
	OpSub   // dst = (src2|dst) - src
	OpRsb   // dst = src - src2 (ARM reverse subtract)
	OpAnd   // dst = (src2|dst) & src
	OpOr    // dst = (src2|dst) | src
	OpXor   // dst = (src2|dst) ^ src
	OpShl   // dst = (src2|dst) << src
	OpShr   // dst = (src2|dst) >> src (logical)
	OpMul   // dst = (src2|dst) * src
	OpDiv   // dst = (src2|dst) / src (unsigned; x86 form uses EAX/EDX pair)
	OpNeg   // dst = -dst
	OpNot   // dst = ^dst
	OpInc   // dst = dst + 1
	OpDec   // dst = dst - 1
	OpCmp   // set flags from (src2|dst) - src
	OpTest  // set flags from (src2|dst) & src
	OpLea   // dst = effective address of src mem operand
	OpLoad  // dst(reg) = mem[src]  (ARM ldr; on x86 expressed as OpMov with mem src)
	OpStore // mem[dst] = src       (ARM str; on x86 expressed as OpMov with mem dst)
	OpPush  // push src
	OpPop   // pop into dst
	OpPushM // push register mask (ARM stmdb sp!, {...})
	OpPopM  // pop register mask (ARM ldmia sp!, {...}); mask containing PC is a return
	OpJmp   // unconditional direct jump to Target
	OpJcc   // conditional direct jump to Target, condition in Cond
	OpCall  // direct call to Target
	OpJmpI  // indirect jump through dst operand (reg or mem)
	OpCallI // indirect call through dst operand (reg or mem)
	OpRet   // x86 ret: pop return address and jump
	OpBx    // ARM bx rm: branch to register; bx lr is the return idiom
	OpLeave // x86 leave: esp = ebp; pop ebp
	OpSys   // software interrupt / svc; Imm selects the vector
	OpHlt   // halt marker (used to fence code regions)
	OpMovT  // ARM movt: dst = (dst & 0xFFFF) | imm<<16
)

var opNames = map[Op]string{
	OpInvalid: "(invalid)", OpNop: "nop", OpMov: "mov", OpAdd: "add",
	OpSub: "sub", OpRsb: "rsb", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpMul: "mul", OpDiv: "div", OpNeg: "neg",
	OpNot: "not", OpInc: "inc", OpDec: "dec", OpCmp: "cmp", OpTest: "test",
	OpLea: "lea", OpLoad: "ldr", OpStore: "str", OpPush: "push", OpPop: "pop",
	OpPushM: "pushm", OpPopM: "popm", OpJmp: "jmp", OpJcc: "jcc",
	OpCall: "call", OpJmpI: "jmp*", OpCallI: "call*", OpRet: "ret",
	OpBx: "bx", OpLeave: "leave", OpSys: "sys", OpHlt: "hlt", OpMovT: "movt",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsControl reports whether o transfers control.
func (o Op) IsControl() bool {
	switch o {
	case OpJmp, OpJcc, OpCall, OpJmpI, OpCallI, OpRet, OpBx, OpSys:
		return true
	}
	return false
}

// IsIndirect reports whether o is an indirect control transfer (a gadget
// terminator the PSR virtual machine must police).
func (o Op) IsIndirect() bool {
	switch o {
	case OpJmpI, OpCallI, OpRet, OpBx:
		return true
	}
	return false
}

// Cond is a branch condition shared by both ISAs.
type Cond uint8

const (
	CondAlways Cond = iota
	CondEQ          // equal / zero
	CondNE          // not equal / not zero
	CondLT          // signed less than
	CondGE          // signed greater or equal
	CondGT          // signed greater than
	CondLE          // signed less or equal
	CondB           // unsigned below
	CondAE          // unsigned above or equal
)

var condNames = [...]string{"al", "eq", "ne", "lt", "ge", "gt", "le", "b", "ae"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond(%d)", uint8(c))
}

// Negate returns the complementary condition.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondGE:
		return CondLT
	case CondGT:
		return CondLE
	case CondLE:
		return CondGT
	case CondB:
		return CondAE
	case CondAE:
		return CondB
	default:
		return CondAlways
	}
}

// OperandKind discriminates Operand.
type OperandKind uint8

const (
	OpdNone OperandKind = iota
	OpdReg
	OpdImm
	OpdMem
)

// MemRef is a memory operand: [base + index*scale + disp].
type MemRef struct {
	Base     Reg
	Index    Reg
	HasBase  bool
	HasIndex bool
	Scale    uint8 // 1, 2, 4 or 8
	Disp     int32
}

func (m MemRef) String() string {
	var b strings.Builder
	b.WriteByte('[')
	parts := 0
	if m.HasBase {
		b.WriteString(fmt.Sprintf("r%d", uint8(m.Base)))
		parts++
	}
	if m.HasIndex {
		if parts > 0 {
			b.WriteByte('+')
		}
		b.WriteString(fmt.Sprintf("r%d*%d", uint8(m.Index), m.Scale))
		parts++
	}
	if m.Disp != 0 || parts == 0 {
		if m.Disp >= 0 && parts > 0 {
			b.WriteByte('+')
		}
		b.WriteString(fmt.Sprintf("%#x", m.Disp))
	}
	b.WriteByte(']')
	return b.String()
}

// Operand is a decoded instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg
	Imm  int32
	Mem  MemRef
}

// R builds a register operand.
func R(r Reg) Operand { return Operand{Kind: OpdReg, Reg: r} }

// I builds an immediate operand.
func I(v int32) Operand { return Operand{Kind: OpdImm, Imm: v} }

// M builds a memory operand.
func M(m MemRef) Operand { return Operand{Kind: OpdMem, Mem: m} }

// MB builds a base+displacement memory operand.
func MB(base Reg, disp int32) Operand {
	return Operand{Kind: OpdMem, Mem: MemRef{Base: base, HasBase: true, Disp: disp}}
}

func (o Operand) String() string {
	switch o.Kind {
	case OpdNone:
		return "_"
	case OpdReg:
		return fmt.Sprintf("r%d", uint8(o.Reg))
	case OpdImm:
		return fmt.Sprintf("$%#x", o.Imm)
	case OpdMem:
		return o.Mem.String()
	default:
		return "?"
	}
}

// IsReg reports whether o is the given register.
func (o Operand) IsReg(r Reg) bool { return o.Kind == OpdReg && o.Reg == r }

// Inst is a decoded instruction in architecture-neutral form. Dst is the
// x86-style destination (also a source for two-operand ALU forms); Src is
// the second operand. Src2, when present, makes the instruction
// three-operand (ARM ALU form: Dst = Src2 op Src).
type Inst struct {
	Op      Op
	Cond    Cond
	Dst     Operand
	Src     Operand
	Src2    Operand
	Target  uint32 // absolute target of direct control transfers
	Imm     int32  // auxiliary immediate (OpSys vector, ret pop count)
	RegMask uint16 // register set of OpPushM/OpPopM
	Addr    uint32 // address the instruction was decoded from
	Size    uint8  // encoded length in bytes
	ISA     Kind
	// ByteOp marks 8-bit x86 operand forms (operations touch only the low
	// byte of registers/memory). These encodings dominate the
	// unintentional-gadget surface of dense variable-length ISAs.
	ByteOp bool
}

// ThreeOperand reports whether the instruction uses the ARM-style
// dst = src2 op src form.
func (in *Inst) ThreeOperand() bool { return in.Src2.Kind != OpdNone }

// EndsBlock reports whether the instruction terminates a basic block for
// predecoding purposes: any control transfer, a halt, or an ARM pop
// multiple whose mask includes PC (a return in disguise — OpPopM is not an
// Op.IsControl op, but it redirects the PC all the same).
func (in *Inst) EndsBlock() bool {
	if in.Op.IsControl() || in.Op == OpHlt {
		return true
	}
	return in.Op == OpPopM && in.RegMask&(1<<PC) != 0
}

// IsReturn reports whether the instruction is a return idiom of its ISA:
// x86 ret, ARM bx lr, or an ARM pop multiple whose mask includes PC.
func (in *Inst) IsReturn() bool {
	switch in.Op {
	case OpRet:
		return true
	case OpBx:
		return in.Dst.IsReg(LR)
	case OpPopM:
		return in.RegMask&(1<<PC) != 0
	}
	return false
}

func (in *Inst) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%08x: %s", in.Addr, in.Op)
	if in.Op == OpJcc || (in.Cond != CondAlways && in.Op != OpJcc) {
		fmt.Fprintf(&b, ".%s", in.Cond)
	}
	switch in.Op {
	case OpJmp, OpJcc, OpCall:
		fmt.Fprintf(&b, " %#x", in.Target)
		return b.String()
	case OpPushM, OpPopM:
		fmt.Fprintf(&b, " {%#04x}", in.RegMask)
		return b.String()
	case OpSys:
		fmt.Fprintf(&b, " %#x", in.Imm)
		return b.String()
	}
	sep := " "
	for _, o := range []Operand{in.Dst, in.Src, in.Src2} {
		if o.Kind == OpdNone {
			continue
		}
		b.WriteString(sep)
		b.WriteString(o.String())
		sep = ", "
	}
	return b.String()
}
