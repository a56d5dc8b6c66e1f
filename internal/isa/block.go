package isa

import "fmt"

// DecodeBlock decodes a straight-line run of instructions from code, which
// holds the bytes at address addr, appending to dst and returning it. The
// run ends at the first block terminator (see Inst.EndsBlock), after max
// instructions, or when the remaining bytes no longer decode cleanly.
//
// A short block is not an error: the interpreter retries the failing PC
// through its slow path, which reproduces the exact fetch/decode fault the
// per-step loop would have raised. DecodeBlock returns an error only when
// not a single instruction decodes, so callers always either get progress
// or a diagnosable failure.
func DecodeBlock(k Kind, code []byte, addr uint32, dst []Inst, max int) ([]Inst, error) {
	if len(code) == 0 {
		return dst, fmt.Errorf("%w: no code at %#x", ErrTruncated, addr)
	}
	off := 0
	for len(dst) < max && off < len(code) {
		in, err := Decode(k, code[off:], addr+uint32(off))
		if err != nil {
			if len(dst) > 0 {
				return dst, nil
			}
			return dst, err
		}
		dst = append(dst, in)
		off += int(in.Size)
		if in.EndsBlock() {
			break
		}
	}
	return dst, nil
}
