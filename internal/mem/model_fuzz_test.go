package mem

import (
	"bytes"
	"errors"
	"testing"
)

// cowState is the copy-on-write state the reference model expects a page
// to be in.
type cowState uint8

const (
	stZero   cowState = iota // mapped, never written, never snapshotted
	stShared                 // bytes aliased with a snapshot
	stOwned                  // private bytes
)

// modelPages bounds the address space the fuzzer reaches: addresses come
// from the first ten pages, and the longest access or mapping runs a few
// pages past them.
const modelPages = 16

// refMemory is the flat reference model FuzzMemoryModel checks Memory
// against: a byte array, a per-page permission, and the expected
// copy-on-write state and break count. It is a value type, so a copy is a
// frozen image.
type refMemory struct {
	bytes  [modelPages * PageSize]byte
	mapped [modelPages]bool
	perm   [modelPages]Perm
	state  [modelPages]cowState
	broken uint64
}

func (r *refMemory) pages() int {
	n := 0
	for _, ok := range r.mapped {
		if ok {
			n++
		}
	}
	return n
}

func pageSpan(addr, size uint32) (first, last uint32) {
	return addr / PageSize, (addr + size - 1) / PageSize
}

// mapPages mirrors Map: missing pages appear demand-zero, existing ones
// are re-permissioned. It returns the re-permissioned pages whose code
// generation must move.
func (r *refMemory) mapPages(addr, size uint32, perm Perm) (bumped []uint32) {
	first, last := pageSpan(addr, size)
	for pn := first; pn <= last; pn++ {
		if !r.mapped[pn] {
			r.mapped[pn], r.state[pn] = true, stZero
		} else if (r.perm[pn]|perm)&PermX != 0 {
			bumped = append(bumped, pn)
		}
		r.perm[pn] = perm
	}
	return bumped
}

// protect mirrors Protect: only mapped pages change.
func (r *refMemory) protect(addr, size uint32, perm Perm) (bumped []uint32) {
	first, last := pageSpan(addr, size)
	for pn := first; pn <= last; pn++ {
		if !r.mapped[pn] {
			continue
		}
		if (r.perm[pn]|perm)&PermX != 0 {
			bumped = append(bumped, pn)
		}
		r.perm[pn] = perm
	}
	return bumped
}

// own mirrors the write barrier: a demand-zero page becomes private for
// free, a shared one costs a break.
func (r *refMemory) own(pn uint32) {
	switch r.state[pn] {
	case stZero:
		r.state[pn] = stOwned
	case stShared:
		r.state[pn] = stOwned
		r.broken++
	}
}

// write mirrors Write (force=false) and WriteForce (force=true) page by
// page, so a fault part-way leaves the earlier pages written. It returns
// the pages written while executable.
func (r *refMemory) write(addr uint32, buf []byte, force bool) (code []uint32, fault *Fault) {
	off := addr
	for len(buf) > 0 {
		pn := off / PageSize
		perm, ok := r.perm[pn], r.mapped[pn]
		switch {
		case force && !ok:
			r.mapped[pn], r.perm[pn], r.state[pn] = true, 0, stZero
		case !force && !ok:
			return code, &Fault{Addr: off, Access: PermW}
		case !force && perm&PermW == 0:
			return code, &Fault{Addr: off, Access: PermW, Mapped: true}
		}
		r.own(pn)
		if perm&PermX != 0 {
			code = append(code, pn)
		}
		n := copy(r.bytes[off:(pn+1)*PageSize], buf)
		buf = buf[n:]
		off += uint32(n)
	}
	return code, nil
}

// read mirrors the page-by-page access check of Read and FetchInto: it
// returns the bytes readable before the first fault, and that fault.
func (r *refMemory) read(addr uint32, n int, access Perm) ([]byte, *Fault) {
	var out []byte
	off := addr
	for len(out) < n {
		pn := off / PageSize
		perm, ok := r.perm[pn], r.mapped[pn]
		if !ok {
			return out, &Fault{Addr: off, Access: access}
		}
		if perm&access != access {
			return out, &Fault{Addr: off, Access: access, Mapped: true}
		}
		c := min(n-len(out), int(PageSize-off%PageSize))
		out = append(out, r.bytes[off:off+uint32(c)]...)
		off += uint32(c)
	}
	return out, nil
}

// opReader decodes fuzz bytes; an exhausted input reads as zeros.
type opReader []byte

func (r *opReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// addr picks an address in the first ten pages, biased toward page edges
// so accesses straddle pages and run into unmapped ones.
func (r *opReader) addr() uint32 {
	edges := [...]uint32{0, 1, 3, PageSize - 4, PageSize - 3, PageSize - 1}
	pn := uint32(r.next() % 10)
	c := r.next()
	off := uint32(c) * 13 % PageSize
	if int(c%8) < len(edges) {
		off = edges[c%8]
	}
	return pn*PageSize + off
}

// length picks an access length: a few bytes, or a bit over a page.
func (r *opReader) length() int {
	c := r.next()
	n := 1 + int(c%8)
	if c&0x80 != 0 {
		n += PageSize
	}
	return n
}

func (r *opReader) data(n int) []byte {
	v := r.next()
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = v + byte(i)
	}
	return buf
}

// sameFault compares an error from Memory with the model's expected fault.
func sameFault(t *testing.T, op string, got error, want *Fault) {
	t.Helper()
	if want == nil {
		if got != nil {
			t.Fatalf("%s: unexpected error %v", op, got)
		}
		return
	}
	var f *Fault
	if !errors.As(got, &f) || *f != *want {
		t.Fatalf("%s: error %v, want %v", op, got, want)
	}
}

// checkGens asserts the listed pages carry the current code generation.
func checkGens(t *testing.T, op string, m *Memory, pns []uint32) {
	t.Helper()
	for _, pn := range pns {
		if g := m.PageGen(pn); g != m.CodeGen() {
			t.Fatalf("%s: page %d gen %d, want code gen %d", op, pn, g, m.CodeGen())
		}
	}
}

// checkCow asserts the copy-on-write bookkeeping matches the model and
// the shared zero page is untouched.
func checkCow(t *testing.T, op string, m *Memory, ref *refMemory) {
	t.Helper()
	shared := 0
	for pn, st := range ref.state {
		if !ref.mapped[pn] {
			continue
		}
		pg := m.pages[uint32(pn)]
		if pg == nil {
			t.Fatalf("%s: page %d missing", op, pn)
		}
		if pg.zero != (st == stZero) || pg.shared != (st != stOwned) {
			t.Fatalf("%s: page %d zero=%v shared=%v, model state %d", op, pn, pg.zero, pg.shared, st)
		}
		if pg.zero && &pg.data[0] != &zeroPage[0] {
			t.Fatalf("%s: zero page %d does not alias zeroPage", op, pn)
		}
		if st == stShared {
			shared++
		}
	}
	if len(m.pages) != ref.pages() {
		t.Fatalf("%s: %d pages mapped, model has %d", op, len(m.pages), ref.pages())
	}
	if m.CowBroken() != ref.broken || m.SharedPages() != shared {
		t.Fatalf("%s: broken=%d shared=%d, model %d/%d", op, m.CowBroken(), m.SharedPages(), ref.broken, shared)
	}
	if zeroPage != [PageSize]byte{} {
		t.Fatalf("%s: the shared zero page was written", op)
	}
}

// checkImage compares every page's bytes and permission with the model,
// bypassing permission checks.
func checkImage(t *testing.T, what string, pages map[uint32]snapPage, ref *refMemory) {
	t.Helper()
	if len(pages) != ref.pages() {
		t.Fatalf("%s: %d pages, model has %d", what, len(pages), ref.pages())
	}
	for pn, perm := range ref.perm {
		if !ref.mapped[pn] {
			continue
		}
		pg, ok := pages[uint32(pn)]
		if !ok || pg.perm != perm {
			t.Fatalf("%s: page %d mapped=%v perm=%s, model %s", what, pn, ok, pg.perm, perm)
		}
		if !bytes.Equal(pg.data, ref.bytes[pn*PageSize:(pn+1)*PageSize]) {
			t.Fatalf("%s: page %d bytes differ from the model", what, pn)
		}
	}
}

// memoryImage views a Memory's pages the way a Snapshot stores them,
// without marking anything shared.
func memoryImage(m *Memory) map[uint32]snapPage {
	pages := make(map[uint32]snapPage, len(m.pages))
	for pn, pg := range m.pages {
		pages[pn] = snapPage{data: pg.data, perm: pg.perm}
	}
	return pages
}

// FuzzMemoryModel runs a decoded sequence of Map, Protect, writes, reads,
// Snapshot-then-Fork and InvalidateCodeRange against Memory and a flat
// reference model, comparing bytes, faults, code generations and the
// copy-on-write counters at every step. Snapshots and the Memories they
// were taken from must keep their images after the run continues on a
// fork.
func FuzzMemoryModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 40, 3, 2, 1, 0, 5, 7, 6, 1, 0, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		r := opReader(in)
		m, ref := New(), new(refMemory)
		type frozen struct {
			snap *Snapshot
			src  *Memory
			ref  refMemory
		}
		var snaps []frozen
		for step := 0; len(r) > 0 && step < 256; step++ {
			genBefore := m.CodeGen()
			switch r.next() % 9 {
			case 0:
				addr, size, perm := r.addr(), 1+uint32(r.next())*40, Perm(r.next()%8)
				m.Map("", addr, size, perm)
				checkGens(t, "Map", m, ref.mapPages(addr, size, perm))
			case 1:
				addr, size, perm := r.addr(), 1+uint32(r.next())*40, Perm(r.next()%8)
				m.Protect(addr, size, perm)
				checkGens(t, "Protect", m, ref.protect(addr, size, perm))
			case 2:
				addr, buf := r.addr(), r.data(r.length())
				err := m.Write(addr, buf)
				code, fault := ref.write(addr, buf, false)
				sameFault(t, "Write", err, fault)
				checkGens(t, "Write", m, code)
			case 3:
				addr, buf := r.addr(), r.data(r.length())
				m.WriteForce(addr, buf)
				code, _ := ref.write(addr, buf, true)
				checkGens(t, "WriteForce", m, code)
			case 4:
				addr, buf := r.addr(), r.data(1)
				err := m.StoreByte(addr, buf[0])
				code, fault := ref.write(addr, buf, false)
				sameFault(t, "StoreByte", err, fault)
				checkGens(t, "StoreByte", m, code)
			case 5:
				addr, buf := r.addr(), r.data(4)
				v := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
				err := m.WriteWord(addr, v)
				code, fault := ref.write(addr, buf, false)
				sameFault(t, "WriteWord", err, fault)
				checkGens(t, "WriteWord", m, code)
			case 6:
				addr, n := r.addr(), r.length()
				if r.next()%2 == 0 {
					got := make([]byte, n)
					err := m.Read(addr, got)
					want, fault := ref.read(addr, n, PermR)
					sameFault(t, "Read", err, fault)
					if fault == nil && !bytes.Equal(got, want) {
						t.Fatalf("Read %#x+%d: got % x, want % x", addr, n, got, want)
					}
				} else {
					got := make([]byte, n)
					c, err := m.FetchInto(addr, got)
					want, fault := ref.read(addr, n, PermX)
					if len(want) > 0 {
						fault = nil // a short window, not a fault
					}
					sameFault(t, "FetchInto", err, fault)
					if !bytes.Equal(got[:c], want) {
						t.Fatalf("FetchInto %#x+%d: got % x, want % x", addr, n, got[:c], want)
					}
				}
			case 7:
				s := m.Snapshot()
				snaps = append(snaps, frozen{snap: s, src: m, ref: *ref})
				m = s.Fork()
				for pn := range ref.state {
					ref.state[pn] = stShared
				}
				ref.broken = 0
			case 8:
				addr, size := r.addr(), uint32(r.length())
				m.InvalidateCodeRange(addr, size)
				var pns []uint32
				first, last := pageSpan(addr, size)
				for pn := first; pn <= last; pn++ {
					if ref.mapped[pn] {
						pns = append(pns, pn)
					}
				}
				checkGens(t, "InvalidateCodeRange", m, pns)
			}
			if m.CodeGen() < genBefore {
				t.Fatalf("step %d: code gen went back %d -> %d", step, genBefore, m.CodeGen())
			}
			checkCow(t, "step", m, ref)
		}
		checkImage(t, "memory", memoryImage(m), ref)
		for i, fz := range snaps {
			checkImage(t, "snapshot", fz.snap.pages, &fz.ref)
			checkImage(t, "snapshot source", memoryImage(fz.src), &fz.ref)
			if fz.src.CowBroken() != fz.ref.broken || fz.src.SharedPages() != fz.ref.pages() {
				t.Fatalf("snapshot %d source: broken=%d shared=%d, want %d/%d",
					i, fz.src.CowBroken(), fz.src.SharedPages(), fz.ref.broken, fz.ref.pages())
			}
		}
	})
}
