package isa

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// TestARMBranchWrapRoundTrip: a branch whose target wraps below address 0
// decodes (30 30 b4 24 at 0x1000 is a jcc to 0xffd0d0c4) and must
// re-encode to the same bytes.
func TestARMBranchWrapRoundTrip(t *testing.T) {
	raw := []byte{0x30, 0x30, 0xb4, 0x24}
	in, err := DecodeARM(raw, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if in.Op != OpJcc || in.Target != 0xffd0d0c4 {
		t.Fatalf("decoded %s target %#x, want jcc to 0xffd0d0c4", in.String(), in.Target)
	}
	got, err := EncodeARM(&in)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("re-encoded % x, want % x", got, raw)
	}
}

// FuzzARMBranchRoundTrip checks every branch DecodeARM accepts, at any
// address, re-encodes to the bytes it was decoded from.
func FuzzARMBranchRoundTrip(f *testing.F) {
	f.Add(uint32(0x24b43030), uint32(0x1000))
	f.Fuzz(func(t *testing.T, word, addr uint32) {
		raw := binary.LittleEndian.AppendUint32(nil, word)
		in, err := DecodeARM(raw, addr)
		if err != nil || (in.Op != OpJmp && in.Op != OpJcc && in.Op != OpCall) {
			return
		}
		got, err := EncodeARM(&in)
		if err != nil {
			t.Fatalf("% x at %#x decodes to %s but does not re-encode: %v", raw, addr, in.String(), err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("% x at %#x re-encodes to % x", raw, addr, got)
		}
	})
}
