// Package mem provides the sparse, permission-checked 32-bit address space
// shared by both cores of the simulated heterogeneous-ISA CMP.
//
// The address space is organized as 4 KiB pages created on demand by Map.
// Named regions record the process layout (per-ISA text sections, data,
// heap, stack, per-ISA code caches) so higher layers — the PSR virtual
// machine's software-fault-isolation checks, the gadget miner, the JIT-ROP
// attacker model — can reason about which region an address falls in.
package mem

import (
	"fmt"
	"sort"
)

// PageSize is the granularity of mapping and permissions.
const PageSize = 4096

// Perm is a page-permission bitmask.
type Perm uint8

const (
	PermR Perm = 1 << iota
	PermW
	PermX
	PermRW  = PermR | PermW
	PermRX  = PermR | PermX
	PermRWX = PermR | PermW | PermX
)

func (p Perm) String() string {
	b := []byte("---")
	if p&PermR != 0 {
		b[0] = 'r'
	}
	if p&PermW != 0 {
		b[1] = 'w'
	}
	if p&PermX != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Fault is a memory access violation: unmapped address or permission
// mismatch. Attack simulations use Faults to detect crashed exploit
// attempts.
type Fault struct {
	Addr   uint32
	Access Perm
	Mapped bool
}

func (f *Fault) Error() string {
	if !f.Mapped {
		return fmt.Sprintf("mem: fault: %s access to unmapped address %#x", f.Access, f.Addr)
	}
	return fmt.Sprintf("mem: fault: %s access denied at %#x", f.Access, f.Addr)
}

type page struct {
	data []byte
	perm Perm
	// gen is the page's code generation: the codeGen value of the last
	// mutation that could have changed executable bytes on this page. The
	// effective generation reported by PageGen is max(gen, allGen), so
	// whole-address-space invalidations stay O(1).
	gen uint64
	// shared marks data as aliased by a Snapshot or a sibling Memory
	// (Fork/Clone): the bytes are immutable until this Memory copies them
	// (copy-on-write). The flag is per-Memory and flipped only by the
	// owning goroutine, so the write barrier pays a plain bool check, not
	// an atomic.
	shared bool
	// zero marks a demand-zero page: data aliases zeroPage and nothing has
	// written it yet. zero implies shared, so the first write goes through
	// ensureOwned.
	zero bool
}

// zeroPage backs every demand-zero page of every Memory. It is never
// written: every write path privatizes its page (ensureOwned) first.
var zeroPage [PageSize]byte

// newZeroPage returns a demand-zero page with the given permissions.
func newZeroPage(perm Perm) *page {
	return &page{data: zeroPage[:], perm: perm, shared: true, zero: true}
}

// Region is a named address range of the process layout.
type Region struct {
	Name string
	Base uint32
	Size uint32
	Perm Perm
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint32) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// End returns the first address past the region.
func (r Region) End() uint32 { return r.Base + r.Size }

// Memory is a sparse paged address space.
type Memory struct {
	pages   map[uint32]*page
	regions map[string]Region
	// codeGen is the monotonic code-generation counter: it advances on
	// every mutation that could change executable bytes (writes into
	// pages with execute permission, permission changes that grant
	// execute, and explicit InvalidateCode calls). Consumers that cache
	// decoded instructions — the interpreter's basic-block cache — compare
	// generations instead of re-fetching, so the hot path stays a single
	// integer comparison. It is the "anything changed?" fast path; the
	// per-page generations below say *what* changed.
	codeGen uint64
	// allGen is the whole-address-space invalidation floor: InvalidateCode
	// raises it to codeGen, and every page's effective generation is
	// clamped up to it (see PageGen). This keeps full invalidation O(1)
	// while ranged mutations touch only the pages actually written.
	allGen uint64
	// writeLog is a ring of the byte ranges behind recent generation
	// bumps, indexed by generation. Consumers that fall behind by more
	// than CodeWriteLogSize generations (or that observe allGen moving)
	// fall back to coarser page- or whole-cache invalidation.
	writeLog [CodeWriteLogSize]codeWrite
	// cowBroken counts pages this Memory has privatized: shared page data
	// copied because of a write (see ensureOwned).
	cowBroken uint64
	// tlb is a direct-mapped translation cache over the page table. Pages
	// are never removed from the table and *page pointers are stable for
	// the life of the Memory (Map re-permissions in place, ensureOwned
	// swaps the data slice inside the struct), so entries never need
	// invalidation: permissions and the shared flag live on the page and
	// are still checked on every access. A nil tlbPG slot is empty.
	tlbPN [tlbSize]uint32
	tlbPG [tlbSize]*page
}

// tlbSize is the number of direct-mapped page-translation slots per
// Memory; must be a power of two.
const tlbSize = 64

// CodeWriteLogSize is the number of recent ranged code mutations the
// memory remembers for byte-exact cache invalidation.
const CodeWriteLogSize = 64

type codeWrite struct {
	gen  uint64
	addr uint32
	size uint32
}

// CodeWrite is the byte range of one ranged code mutation.
type CodeWrite struct {
	Addr uint32
	Size uint32
}

// CodeWriteAt returns the byte range whose mutation produced generation g,
// if g is recent enough to still be in the write log. Whole-address-space
// invalidations never appear here — CodeGenFloor reports those.
func (m *Memory) CodeWriteAt(g uint64) (CodeWrite, bool) {
	e := &m.writeLog[g%CodeWriteLogSize]
	if e.gen != g {
		return CodeWrite{}, false
	}
	return CodeWrite{Addr: e.addr, Size: e.size}, true
}

// logCodeWrite records the byte range of the mutation that produced the
// current code generation.
func (m *Memory) logCodeWrite(addr, size uint32) {
	m.writeLog[m.codeGen%CodeWriteLogSize] = codeWrite{gen: m.codeGen, addr: addr, size: size}
}

// New returns an empty address space.
func New() *Memory {
	return &Memory{
		pages:   make(map[uint32]*page),
		regions: make(map[string]Region),
		codeGen: 1,
	}
}

// CodeGen returns the current code generation. Some cached decode of
// executable bytes may be stale once the value changes; PageGen narrows
// the staleness to individual pages.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// PageGen returns the effective code generation of page number pn
// (addr/PageSize). A cached decode of bytes on that page is stale once
// the value moves past the generation observed at decode time. Unmapped
// pages report the whole-space floor: nothing decodable lives there.
func (m *Memory) PageGen(pn uint32) uint64 {
	if pg, ok := m.pages[pn]; ok && pg.gen > m.allGen {
		return pg.gen
	}
	return m.allGen
}

// CodeGenFloor returns the whole-address-space invalidation floor: the
// generation every page is clamped up to. Block caches compare it against
// their sync point to detect a full invalidation without walking pages.
func (m *Memory) CodeGenFloor() uint64 { return m.allGen }

// InvalidateCode advances the code generation for the entire address
// space without touching memory — the coarse fallback when the caller
// cannot name the affected range. Every page's effective generation moves,
// so consumers drop all cached decodes.
func (m *Memory) InvalidateCode() {
	m.codeGen++
	m.allGen = m.codeGen
}

// InvalidateCodeRange advances the code generation of the pages covering
// [addr, addr+size) without touching memory. The DBT wires code-cache
// flushes here so block caches drop decodes of evicted translations —
// and only those — even before their bytes are overwritten.
func (m *Memory) InvalidateCodeRange(addr, size uint32) {
	if size == 0 {
		return
	}
	m.codeGen++
	m.logCodeWrite(addr, size)
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	for pn := first; pn <= last; pn++ {
		if pg, ok := m.pages[pn]; ok {
			pg.gen = m.codeGen
		}
	}
}

// Map creates (or re-permissions) pages covering [addr, addr+size) with the
// given permissions and, when name is non-empty, records a region of that
// name. Size is rounded up to whole pages.
func (m *Memory) Map(name string, addr, size uint32, perm Perm) Region {
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	bumped := false
	for pn := first; pn <= last; pn++ {
		if pg, ok := m.pages[pn]; ok {
			if (pg.perm|perm)&PermX != 0 {
				if !bumped {
					m.codeGen++
					m.logCodeWrite(first*PageSize, (last-first+1)*PageSize)
					bumped = true
				}
				pg.gen = m.codeGen
			}
			pg.perm = perm
		} else {
			// A fresh page cannot have cached decodes: no generation bump.
			m.pages[pn] = newZeroPage(perm)
		}
	}
	r := Region{Name: name, Base: addr, Size: size, Perm: perm}
	if name != "" {
		m.regions[name] = r
	}
	return r
}

// Protect changes the permissions of all pages covering [addr, addr+size).
// Unmapped pages in the range are ignored.
func (m *Memory) Protect(addr, size uint32, perm Perm) {
	first := addr / PageSize
	last := (addr + size - 1) / PageSize
	bumped := false
	for pn := first; pn <= last; pn++ {
		if pg, ok := m.pages[pn]; ok {
			if (pg.perm|perm)&PermX != 0 {
				if !bumped {
					m.codeGen++
					m.logCodeWrite(first*PageSize, (last-first+1)*PageSize)
					bumped = true
				}
				pg.gen = m.codeGen
			}
			pg.perm = perm
		}
	}
}

// Region returns the named region.
func (m *Memory) Region(name string) (Region, bool) {
	r, ok := m.regions[name]
	return r, ok
}

// Regions returns all named regions sorted by base address.
func (m *Memory) Regions() []Region {
	out := make([]Region, 0, len(m.regions))
	for _, r := range m.regions {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Base < out[j].Base })
	return out
}

// RegionAt returns the named region containing addr, if any.
func (m *Memory) RegionAt(addr uint32) (Region, bool) {
	for _, r := range m.regions {
		if r.Contains(addr) {
			return r, true
		}
	}
	return Region{}, false
}

// ensureOwned privatizes a page whose data is aliased by a snapshot or a
// sibling fork: the bytes are copied and the shared flag drops, so the
// write about to happen cannot leak into other address spaces. A
// demand-zero page gets fresh zeroed bytes instead, and counts no break.
// Pages never shared (the common case after warm-up) cost one predictable
// branch.
func (m *Memory) ensureOwned(pg *page) {
	if !pg.shared {
		return
	}
	nd := make([]byte, PageSize)
	if pg.zero {
		pg.zero = false
	} else {
		copy(nd, pg.data)
		m.cowBroken++
	}
	pg.data = nd
	pg.shared = false
}

// CowBroken returns how many shared pages this Memory has privatized
// (copied on first write) since it was created or forked.
func (m *Memory) CowBroken() uint64 { return m.cowBroken }

// SharedPages returns how many of this Memory's pages still alias bytes
// owned jointly with a snapshot or sibling fork. A freshly forked Memory
// shares everything; the count decays as the write barrier privatizes
// pages. Demand-zero pages alias only zeroPage and are not counted.
func (m *Memory) SharedPages() int {
	n := 0
	for _, pg := range m.pages {
		if pg.shared && !pg.zero {
			n++
		}
	}
	return n
}

func (m *Memory) pageFor(addr uint32, access Perm) (*page, error) {
	pn := addr / PageSize
	slot := pn & (tlbSize - 1)
	pg := m.tlbPG[slot]
	if pg == nil || m.tlbPN[slot] != pn {
		var ok bool
		pg, ok = m.pages[pn]
		if !ok {
			return nil, &Fault{Addr: addr, Access: access}
		}
		m.tlbPN[slot] = pn
		m.tlbPG[slot] = pg
	}
	if pg.perm&access != access {
		return nil, &Fault{Addr: addr, Access: access, Mapped: true}
	}
	return pg, nil
}

// Read copies len(buf) bytes from addr, requiring read permission.
func (m *Memory) Read(addr uint32, buf []byte) error {
	off := addr
	for len(buf) > 0 {
		pg, err := m.pageFor(off, PermR)
		if err != nil {
			return err
		}
		po := off % PageSize
		n := copy(buf, pg.data[po:])
		buf = buf[n:]
		off += uint32(n)
	}
	return nil
}

// Write copies buf to addr, requiring write permission.
func (m *Memory) Write(addr uint32, buf []byte) error {
	off := addr
	n0 := uint32(len(buf))
	bumped := false
	for len(buf) > 0 {
		pg, err := m.pageFor(off, PermW)
		if err != nil {
			return err
		}
		m.ensureOwned(pg)
		if pg.perm&PermX != 0 {
			if !bumped {
				m.codeGen++
				m.logCodeWrite(addr, n0)
				bumped = true
			}
			pg.gen = m.codeGen
		}
		po := off % PageSize
		n := copy(pg.data[po:], buf)
		buf = buf[n:]
		off += uint32(n)
	}
	return nil
}

// WriteForce writes ignoring permissions, mapping pages as needed. Loaders
// and the DBT's code-cache emitter use it; simulated programs never do.
func (m *Memory) WriteForce(addr uint32, buf []byte) {
	off := addr
	n0 := uint32(len(buf))
	bumped := false
	for len(buf) > 0 {
		pn := off / PageSize
		pg, ok := m.pages[pn]
		if !ok {
			pg = newZeroPage(0)
			m.pages[pn] = pg
		}
		m.ensureOwned(pg)
		if pg.perm&PermX != 0 {
			if !bumped {
				m.codeGen++
				m.logCodeWrite(addr, n0)
				bumped = true
			}
			pg.gen = m.codeGen
		}
		po := off % PageSize
		n := copy(pg.data[po:], buf)
		buf = buf[n:]
		off += uint32(n)
	}
}

// LoadByte reads a single byte.
func (m *Memory) LoadByte(addr uint32) (byte, error) {
	pg, err := m.pageFor(addr, PermR)
	if err != nil {
		return 0, err
	}
	return pg.data[addr%PageSize], nil
}

// StoreByte writes a single byte.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	pg, err := m.pageFor(addr, PermW)
	if err != nil {
		return err
	}
	m.ensureOwned(pg)
	if pg.perm&PermX != 0 {
		m.codeGen++
		m.logCodeWrite(addr, 1)
		pg.gen = m.codeGen
	}
	pg.data[addr%PageSize] = v
	return nil
}

// ReadWord reads a little-endian 32-bit word.
func (m *Memory) ReadWord(addr uint32) (uint32, error) {
	if po := addr % PageSize; po <= PageSize-4 {
		pg, err := m.pageFor(addr, PermR)
		if err != nil {
			return 0, err
		}
		d := pg.data[po : po+4 : po+4]
		return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
	}
	var b [4]byte
	if err := m.Read(addr, b[:]); err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// WriteWord writes a little-endian 32-bit word.
func (m *Memory) WriteWord(addr uint32, v uint32) error {
	if po := addr % PageSize; po <= PageSize-4 {
		pg, err := m.pageFor(addr, PermW)
		if err != nil {
			return err
		}
		m.ensureOwned(pg)
		if pg.perm&PermX != 0 {
			m.codeGen++
			m.logCodeWrite(addr, 4)
			pg.gen = m.codeGen
		}
		d := pg.data[po : po+4 : po+4]
		d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		return nil
	}
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	return m.Write(addr, b[:])
}

// Fetch returns up to n instruction bytes starting at addr, requiring
// execute permission on every page touched. Fewer than n bytes are
// returned when the executable range ends.
func (m *Memory) Fetch(addr uint32, n int) ([]byte, error) {
	out := make([]byte, 0, n)
	off := addr
	for len(out) < n {
		pg, err := m.pageFor(off, PermX)
		if err != nil {
			if len(out) > 0 {
				return out, nil
			}
			return nil, err
		}
		po := off % PageSize
		take := min(n-len(out), PageSize-int(po))
		out = append(out, pg.data[po:int(po)+take]...)
		off += uint32(take)
	}
	return out, nil
}

// FetchInto is Fetch with a caller-owned buffer: it fills buf with
// instruction bytes starting at addr and returns how many were copied.
// Fewer than len(buf) bytes come back when the executable range ends;
// a fault on the very first page is an error. The interpreter's block
// cache uses this to refill without allocating per fetch.
func (m *Memory) FetchInto(addr uint32, buf []byte) (int, error) {
	off := addr
	n := 0
	for n < len(buf) {
		pg, err := m.pageFor(off, PermX)
		if err != nil {
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
		po := off % PageSize
		c := copy(buf[n:], pg.data[po:])
		n += c
		off += uint32(c)
	}
	return n, nil
}

// Snapshot is a frozen image of a Memory: page data aliased copy-on-write,
// plus the region table and the full code-generation state (codeGen,
// allGen floor, write log) at the moment of the snapshot. Snapshots are
// immutable and safe to Fork from many goroutines concurrently; the
// source Memory keeps running and privatizes pages as it writes.
type Snapshot struct {
	pages    map[uint32]snapPage
	regions  map[string]Region
	codeGen  uint64
	allGen   uint64
	writeLog [CodeWriteLogSize]codeWrite
}

type snapPage struct {
	data []byte // immutable: every aliasing Memory carries shared=true
	perm Perm
	gen  uint64
}

// Snapshot freezes the current image. Every live page is marked shared, so
// the source Memory's next write to it copies first — the snapshot's bytes
// never change after this call. Demand-zero pages lose their zero mark:
// their bytes are now aliased with the snapshot, so a later write counts
// as a copy-on-write break like any other. Cost is O(page-table), zero
// byte copies.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{
		pages:    make(map[uint32]snapPage, len(m.pages)),
		regions:  make(map[string]Region, len(m.regions)),
		codeGen:  m.codeGen,
		allGen:   m.allGen,
		writeLog: m.writeLog,
	}
	for pn, pg := range m.pages {
		pg.shared = true
		pg.zero = false
		s.pages[pn] = snapPage{data: pg.data, perm: pg.perm, gen: pg.gen}
	}
	for n, r := range m.regions {
		s.regions[n] = r
	}
	return s
}

// Pages returns how many pages the snapshot holds.
func (s *Snapshot) Pages() int { return len(s.pages) }

// Fork materializes a new Memory from the snapshot. Every page aliases the
// snapshot's bytes until the new Memory first writes it (the write barrier
// copies on demand), so forking costs O(page-table) regardless of image
// size. Code generations, the allGen floor, and the write log carry over,
// keeping block caches built against the source image exactly as valid as
// they were at snapshot time.
func (s *Snapshot) Fork() *Memory {
	c := New()
	for pn, sp := range s.pages {
		c.pages[pn] = &page{data: sp.data, perm: sp.perm, gen: sp.gen, shared: true}
	}
	for n, r := range s.regions {
		c.regions[n] = r
	}
	c.codeGen = s.codeGen
	c.allGen = s.allGen
	c.writeLog = s.writeLog
	return c
}

// Clone copies the address space, including regions and generation state.
// The copy is lazy: both the original and the clone keep aliasing the same
// page bytes until either side writes (copy-on-write), so Clone is
// O(page-table) rather than O(image). Respawn-based brute-force
// simulations use it to restore pristine process images.
func (m *Memory) Clone() *Memory {
	return m.Snapshot().Fork()
}
