// Package isa defines the two synthetic instruction-set architectures used
// throughout the HIPStR reproduction: a variable-length, byte-dense x86-like
// ISA and a fixed-width, strictly aligned ARM-like ISA.
//
// The encodings are deliberately faithful to the properties the paper
// exploits: the x86-like ISA admits unaligned decoding (and therefore
// unintentional gadgets ending in the 0xC3 ret byte), exposes memory
// operands on ALU instructions, and has only eight general-purpose
// registers; the ARM-like ISA is a load/store architecture with sixteen
// registers and a strict 4-byte-aligned encoding, which shrinks its gadget
// surface by more than an order of magnitude.
package isa

import "fmt"

// Kind identifies one of the two ISAs of the heterogeneous CMP.
type Kind uint8

const (
	// X86 is the variable-length, register-poor, memory-operand ISA.
	X86 Kind = iota
	// ARM is the fixed-width, aligned, load/store ISA.
	ARM
)

// Kinds lists both ISAs in a stable order.
var Kinds = [2]Kind{X86, ARM}

// Other returns the opposite ISA, i.e. the migration target.
func (k Kind) Other() Kind {
	if k == X86 {
		return ARM
	}
	return X86
}

func (k Kind) String() string {
	switch k {
	case X86:
		return "x86"
	case ARM:
		return "arm"
	default:
		return fmt.Sprintf("isa(%d)", uint8(k))
	}
}

// WordSize is the architectural word size in bytes. Both ISAs are 32-bit.
const WordSize = 4

// Reg names an architectural register. Register numbers 0-7 are valid on
// x86; 0-15 on ARM.
type Reg uint8

// x86 register names.
const (
	EAX Reg = 0
	ECX Reg = 1
	EDX Reg = 2
	EBX Reg = 3
	ESP Reg = 4
	EBP Reg = 5
	ESI Reg = 6
	EDI Reg = 7
)

// ARM register names. R13-R15 have dedicated roles.
const (
	R0  Reg = 0
	R1  Reg = 1
	R2  Reg = 2
	R3  Reg = 3
	R4  Reg = 4
	R5  Reg = 5
	R6  Reg = 6
	R7  Reg = 7
	R8  Reg = 8
	R9  Reg = 9
	R10 Reg = 10
	R11 Reg = 11
	R12 Reg = 12
	SP  Reg = 13
	LR  Reg = 14
	PC  Reg = 15
)

// NoReg is a sentinel for "no register".
const NoReg Reg = 0xFF

var x86RegNames = [8]string{"eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"}

// Name returns the conventional assembly name of r on the given ISA.
func (r Reg) Name(k Kind) string {
	if r == NoReg {
		return "<none>"
	}
	if k == X86 {
		if int(r) < len(x86RegNames) {
			return x86RegNames[r]
		}
		return fmt.Sprintf("x86r%d", uint8(r))
	}
	switch r {
	case SP:
		return "sp"
	case LR:
		return "lr"
	case PC:
		return "pc"
	default:
		return fmt.Sprintf("r%d", uint8(r))
	}
}

// NumRegs reports the number of architectural registers of ISA k.
func NumRegs(k Kind) int {
	if k == X86 {
		return 8
	}
	return 16
}

// StackReg returns the architectural stack pointer of ISA k.
func StackReg(k Kind) Reg {
	if k == X86 {
		return ESP
	}
	return SP
}
