package machine

import (
	"fmt"

	"hipstr/internal/isa"
	"hipstr/internal/mem"
	"hipstr/internal/telemetry"
)

// BlockCap is the maximum number of instructions predecoded into one basic
// block. Blocks normally end at a control transfer; straight-line runs
// longer than this are split, which only costs an extra cache lookup at the
// seam.
const BlockCap = 64

// maxCachedBlocks bounds each per-ISA block map. Real working sets are a
// few hundred blocks; the cap only matters for adversarial workloads (a
// JIT-ROP sweep decoding at every byte offset) where it keeps the cache
// from outgrowing the program it simulates.
const maxCachedBlocks = 1 << 14

// blockBody is the decoded part of a Block. The arrays it points to are
// never written once built (recycle only reclaims private ones), so
// machines of sibling forks can execute one published body concurrently.
type blockBody struct {
	Insts []isa.Inst

	// Fused is the superinstruction lowering of Insts (see isa.FuseBlock):
	// the batched dispatch path executes these entries, falling back to
	// Insts for hooks, fault reporting, and timing commits.
	Fused []isa.FusedInst
}

// pairs returns how many instruction pairs FuseBlock collapsed: every
// fused entry retires one instruction or two.
func (d *blockBody) pairs() int { return len(d.Insts) - len(d.Fused) }

// Block is one block cache's handle on a predecoded straight-line run of
// instructions. Insts[0].Addr is the block's start PC; execution falls off
// the end when the terminator is a not-taken branch or the block was split
// at BlockCap. The body's arrays may be shared with sibling machines
// through a SharedBlocks table; everything else here is private to one
// cache.
type Block struct {
	blockBody

	// [lo, hi) is the byte span the block decoded from (at most BlockCap ×
	// MaxInstLen ≤ PageSize bytes, so at most two pages). The cache's
	// per-page index uses the page span to find candidate blocks and the
	// byte span to evict exactly the ones a write overlapped.
	lo, hi uint32

	// next chains this block to the successor most recently dispatched
	// after it, letting steady-state loops bypass the block-map lookup.
	// A link is trusted only when nextPC and nextISA match the machine
	// and linkEpoch equals the cache's current eviction epoch — any
	// eviction bumps the epoch, which invalidates every link at once
	// without walking blocks.
	next    *Block
	nextPC  uint32
	nextISA isa.Kind

	// shared marks a body owned by a SharedBlocks table: its arrays are
	// never recycled into this cache's refills.
	shared bool

	linkEpoch uint64
}

func (b *Block) pageLo() uint32 { return b.lo / mem.PageSize }
func (b *Block) pageHi() uint32 { return (b.hi - 1) / mem.PageSize }

// overlaps reports whether the block's byte span intersects [addr, addr+size).
func (b *Block) overlaps(addr, size uint32) bool {
	return uint64(b.hi) > uint64(addr) && uint64(b.lo) < uint64(addr)+uint64(size)
}

// BlockCacheStats is a snapshot of the interpreter block cache counters.
type BlockCacheStats struct {
	Hits   uint64 // block dispatches served from cache
	Misses uint64 // block refills (fetch + decode, or fetch + shared body)
	// SharedHits counts the refills served from the snapshot's
	// SharedBlocks table without decoding. They are included in Misses.
	SharedHits uint64
	// Invalidations is the legacy invalidation counter: every event that
	// evicted at least one block. It equals PartialInvalidations +
	// FullInvalidations, so dashboards and metricsdiff snapshots recorded
	// before the partial/full split stay comparable.
	Invalidations        uint64
	PartialInvalidations uint64 // page-ranged evictions (some blocks survived)
	FullInvalidations    uint64 // whole-cache drops (InvalidateCode fallback)
	BlocksEvicted        uint64 // blocks dropped across all invalidations
	Blocks               int    // blocks currently cached (both ISAs)
}

// HitRatio returns Hits/(Hits+Misses), or 0 before any dispatch.
func (s BlockCacheStats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// blockRef names one cached block from a page's index entry.
type blockRef struct {
	pc uint32
	k  isa.Kind
}

// pageIndex lists the cached blocks overlapping one page, together with
// the page generation they observed at decode time.
type pageIndex struct {
	gen  uint64
	refs []blockRef
}

// blockCache memoizes decoded basic blocks per ISA, keyed by start PC, and
// guards them with the memory's code generations. The dispatch fast path
// is one integer compare against the global generation; when that moves,
// the cache reconciles at page granularity: it walks its per-page index
// (only pages that actually hold blocks — a working set of tens, not the
// whole address space) and evicts just the blocks overlapping pages whose
// generation advanced. A whole-address-space InvalidateCode raises the
// memory's generation floor past the cache's sync point and falls back to
// the classic full drop. This keeps the block cache hot under DBT
// translation churn: a translation commit or chain patch dirties one or
// two code-cache pages, so predecodes of untouched regions — including
// the other ISA's — survive.
//
// Blocks are keyed per ISA because PSR migration retargets m.ISA mid-run
// (always at a control transfer, hence always at a block boundary), and the
// same address range decodes differently under each ISA's twin text.
type blockCache struct {
	blocks [2]map[uint32]*Block // indexed by isa.Kind
	byPage map[uint32]*pageIndex
	gen    uint64 // mem.CodeGen value the cache is synced to
	win    []byte // reusable fetch window for refills
	// free recycles evicted blocks' instruction storage into refills
	// (freeFused does the same for their fused lowerings). Hooks receive
	// *isa.Inst only for the duration of a call and must not retain them
	// (see Run), so storage of a dropped block cannot be observed again.
	// Under DBT churn this keeps steady-state refills from hitting the
	// allocator at all.
	free      [][]isa.Inst
	freeFused [][]isa.FusedInst

	// shared, when set, is the table of decoded bodies this machine
	// shares with its fork siblings (see SharedBlocks).
	shared *SharedBlocks

	hits, misses, sharedHits  uint64
	partialInvals, fullInvals uint64
	evicted                   uint64

	// epoch counts eviction events; block successor links record the
	// epoch they were made in and die when it moves (see Block.next).
	epoch uint64

	// Fusion/batching counters (see FusionStats).
	pairsFused    uint64
	batchedBlocks uint64
	exactBlocks   uint64
	commits       uint64
}

// maxFreeInsts bounds the recycled-storage pool.
const maxFreeInsts = 512

// recycle returns an evicted private block's instruction storage to the
// pool. Shared bodies belong to their table and are left alone.
func (bc *blockCache) recycle(b *Block) {
	if b.shared {
		return
	}
	if b.Insts != nil && len(bc.free) < maxFreeInsts {
		bc.free = append(bc.free, b.Insts[:0])
		b.Insts = nil
	}
	if b.Fused != nil && len(bc.freeFused) < maxFreeInsts {
		bc.freeFused = append(bc.freeFused, b.Fused[:0])
		b.Fused = nil
	}
}

// FusionStats is a snapshot of the superinstruction fusion and batched
// dispatch counters.
type FusionStats struct {
	PairsFused    uint64 // instruction pairs collapsed at predecode time
	BatchedBlocks uint64 // block dispatches through the fused fast path
	ExactBlocks   uint64 // block dispatches in exact per-instruction mode
	Commits       uint64 // batched timing-model commits (CommitBlock calls)
}

// FusionStats returns a snapshot of the machine's fusion counters.
func (m *Machine) FusionStats() FusionStats {
	bc := &m.blocks
	return FusionStats{
		PairsFused:    bc.pairsFused,
		BatchedBlocks: bc.batchedBlocks,
		ExactBlocks:   bc.exactBlocks,
		Commits:       bc.commits,
	}
}

// BlockStats returns a snapshot of the machine's block-cache counters.
func (m *Machine) BlockStats() BlockCacheStats {
	bc := &m.blocks
	return BlockCacheStats{
		Hits:                 bc.hits,
		Misses:               bc.misses,
		SharedHits:           bc.sharedHits,
		Invalidations:        bc.partialInvals + bc.fullInvals,
		PartialInvalidations: bc.partialInvals,
		FullInvalidations:    bc.fullInvals,
		BlocksEvicted:        bc.evicted,
		Blocks:               len(bc.blocks[isa.X86]) + len(bc.blocks[isa.ARM]),
	}
}

// reconcile adopts generation g, evicting whatever the move invalidated.
// Three tiers, cheapest-exact first:
//
//  1. Ranged: when the memory's write log still holds every generation in
//     (bc.gen, g], evict only blocks whose byte span a logged write
//     overlapped. A DBT translation commit appends fresh bytes past every
//     decoded block, so this tier usually evicts nothing at all.
//  2. Page walk: when the log rotated past us, compare each indexed
//     page's generation and evict whole pages that moved.
//  3. Full drop: a whole-address-space InvalidateCode raised the
//     generation floor past our sync point; drop everything.
//
// An empty cache adopting its first generation is not counted — only
// actual drops of decoded blocks are invalidations.
func (bc *blockCache) reconcile(mm *mem.Memory, g uint64) {
	if len(bc.byPage) == 0 {
		bc.gen = g
		return
	}
	if mm.CodeGenFloor() > bc.gen {
		bc.dropAll()
		bc.fullInvals++
	} else {
		evicted, ok := bc.reconcileRanged(mm, g)
		if !ok {
			evicted += bc.reconcilePages(mm)
		}
		if evicted > 0 {
			bc.partialInvals++
		}
	}
	bc.gen = g
}

// reconcileRanged replays the memory's write log from bc.gen forward,
// evicting blocks byte-overlapped by each logged mutation. It reports
// false (and leaves page generations untouched) when any generation in
// the window has rotated out of the log, in which case the caller must
// fall back to the page walk.
func (bc *blockCache) reconcileRanged(mm *mem.Memory, g uint64) (int, bool) {
	if g-bc.gen > mem.CodeWriteLogSize {
		return 0, false
	}
	n := 0
	for gg := bc.gen + 1; gg <= g; gg++ {
		w, ok := mm.CodeWriteAt(gg)
		if !ok {
			return n, false
		}
		n += bc.evictRange(w.Addr, w.Size)
	}
	// All mutations replayed: refresh the observed generation of every
	// touched page that still holds blocks, restoring the invariant that
	// indexed pages are current once the cache is synced.
	for gg := bc.gen + 1; gg <= g; gg++ {
		w, _ := mm.CodeWriteAt(gg)
		first := w.Addr / mem.PageSize
		last := (w.Addr + w.Size - 1) / mem.PageSize
		for pn := first; pn <= last; pn++ {
			if pi, ok := bc.byPage[pn]; ok {
				pi.gen = mm.PageGen(pn)
			}
		}
	}
	return n, true
}

// reconcilePages is the coarse fallback: evict every indexed page whose
// generation moved since the blocks on it were decoded.
func (bc *blockCache) reconcilePages(mm *mem.Memory) int {
	evicted := 0
	for pn, pi := range bc.byPage {
		if mm.PageGen(pn) != pi.gen {
			evicted += bc.evictPage(pn)
		}
	}
	return evicted
}

// evictRange drops every block whose byte span intersects [addr,
// addr+size) and returns how many were dropped.
func (bc *blockCache) evictRange(addr, size uint32) int {
	if size == 0 {
		return 0
	}
	first := addr / mem.PageSize
	last := (addr + size - 1) / mem.PageSize
	n := 0
	for pn := first; pn <= last; pn++ {
		pi, ok := bc.byPage[pn]
		if !ok {
			continue
		}
		for i := 0; i < len(pi.refs); {
			ref := pi.refs[i]
			b := bc.blocks[ref.k][ref.pc]
			if b == nil || !b.overlaps(addr, size) {
				i++
				continue
			}
			delete(bc.blocks[ref.k], ref.pc)
			bc.recycle(b)
			n++
			// Unlink from every page the block spans; on this page, swap
			// with the last ref and revisit index i.
			for q := b.pageLo(); q <= b.pageHi(); q++ {
				if q == pn {
					pi.refs[i] = pi.refs[len(pi.refs)-1]
					pi.refs = pi.refs[:len(pi.refs)-1]
				} else {
					bc.dropRef(q, ref)
				}
			}
		}
		if len(pi.refs) == 0 {
			delete(bc.byPage, pn)
		}
	}
	if n > 0 {
		bc.epoch++
	}
	bc.evicted += uint64(n)
	return n
}

// dropAll discards every cached block and the page index, recycling the
// blocks' instruction storage.
func (bc *blockCache) dropAll() {
	bc.epoch++
	for k := range bc.blocks {
		for _, b := range bc.blocks[k] {
			bc.recycle(b)
		}
	}
	bc.evicted += uint64(len(bc.blocks[0]) + len(bc.blocks[1]))
	bc.blocks[0] = nil
	bc.blocks[1] = nil
	bc.byPage = nil
}

// evictPage drops every block overlapping page pn and returns how many
// were dropped. Blocks spanning a second page are unlinked from that
// page's index entry too, so ref lists never accumulate stale entries.
func (bc *blockCache) evictPage(pn uint32) int {
	pi, ok := bc.byPage[pn]
	if !ok {
		return 0
	}
	delete(bc.byPage, pn)
	n := 0
	for _, ref := range pi.refs {
		b, ok := bc.blocks[ref.k][ref.pc]
		if !ok {
			continue
		}
		delete(bc.blocks[ref.k], ref.pc)
		for q := b.pageLo(); q <= b.pageHi(); q++ {
			if q != pn {
				bc.dropRef(q, ref)
			}
		}
		bc.recycle(b)
		n++
	}
	if n > 0 {
		bc.epoch++
	}
	bc.evicted += uint64(n)
	return n
}

// dropRef unlinks one block reference from page pn's index entry, removing
// the entry when it empties.
func (bc *blockCache) dropRef(pn uint32, ref blockRef) {
	pi, ok := bc.byPage[pn]
	if !ok {
		return
	}
	for i, r := range pi.refs {
		if r == ref {
			pi.refs[i] = pi.refs[len(pi.refs)-1]
			pi.refs = pi.refs[:len(pi.refs)-1]
			break
		}
	}
	if len(pi.refs) == 0 {
		delete(bc.byPage, pn)
	}
}

// alive reports whether blk is still the cached block for (k, pc) after a
// reconcile — the dispatch loop uses it to keep executing a block whose
// pages survived a generation move instead of breaking out to re-decode.
func (bc *blockCache) alive(k isa.Kind, pc uint32, blk *Block) bool {
	return bc.blocks[k][pc] == blk
}

// lookup returns the cached block starting at pc under ISA k, or nil.
func (bc *blockCache) lookup(k isa.Kind, pc uint32) *Block {
	if blk := bc.blocks[k]; blk != nil {
		if b, ok := blk[pc]; ok {
			bc.hits++
			return b
		}
	}
	return nil
}

// refill fetches and decodes a new block at m.PC and caches it, indexing
// it under every page it spans. The caller (Run) guarantees the cache is
// synced to the current generation, so the page generations recorded here
// are coherent with bc.gen. Fetch and decode failures are wrapped exactly
// as the per-step slow path wraps them, so callers see identical errors
// whether or not the cache is in play.
//
// With a SharedBlocks table attached, the fetch still runs first (faults
// and permissions are this machine's own), then a published body whose
// bytes prefix the fetch window replaces the decode; a fresh decode that
// ended naturally is offered to the table. Counters advance exactly as
// for a decode either way.
func (bc *blockCache) refill(m *Machine) (*Block, error) {
	if bc.win == nil {
		bc.win = make([]byte, BlockCap*MaxInstLen)
	}
	n, err := m.Mem.FetchInto(m.PC, bc.win)
	if err != nil {
		return nil, fmt.Errorf("machine: fetch at %#x: %w", m.PC, err)
	}
	win := bc.win[:n]
	var b *Block
	if bc.shared != nil {
		if sb := bc.shared.lookup(m.ISA, m.PC, win); sb != nil {
			bc.sharedHits++
			b = &Block{blockBody: sb.blockBody, shared: true}
		}
	}
	if b == nil {
		if b, err = bc.decode(m, win); err != nil {
			return nil, err
		}
	}
	bc.misses++
	bc.pairsFused += uint64(b.pairs())
	last := &b.Insts[len(b.Insts)-1]
	b.lo, b.hi = m.PC, last.Addr+uint32(last.Size)
	tab := bc.blocks[m.ISA]
	if tab == nil || len(tab) >= maxCachedBlocks {
		if len(tab) >= maxCachedBlocks {
			// Cap overflow (adversarial decode sweeps): restart both maps
			// and the index together so no stale references survive.
			bc.dropAll()
		}
		tab = make(map[uint32]*Block)
		bc.blocks[m.ISA] = tab
	}
	tab[m.PC] = b
	if bc.byPage == nil {
		bc.byPage = make(map[uint32]*pageIndex)
	}
	ref := blockRef{pc: m.PC, k: m.ISA}
	for pn := b.pageLo(); pn <= b.pageHi(); pn++ {
		pi := bc.byPage[pn]
		if pi == nil {
			pi = &pageIndex{gen: m.Mem.PageGen(pn)}
			bc.byPage[pn] = pi
		}
		pi.refs = append(pi.refs, ref)
	}
	return b, nil
}

// decode decodes and fuses the block at the head of win, reusing recycled
// storage, and publishes the body when a table is attached and accepts it.
func (bc *blockCache) decode(m *Machine, win []byte) (*Block, error) {
	var dst []isa.Inst
	if l := len(bc.free); l > 0 {
		dst = bc.free[l-1]
		bc.free = bc.free[:l-1]
	}
	insts, err := isa.DecodeBlock(m.ISA, win, m.PC, dst, BlockCap)
	if err != nil {
		return nil, fmt.Errorf("machine: decode at %#x: %w", m.PC, err)
	}
	var fdst []isa.FusedInst
	if l := len(bc.freeFused); l > 0 {
		fdst = bc.freeFused[l-1]
		bc.freeFused = bc.freeFused[:l-1]
	}
	fused, _ := isa.FuseBlock(insts, fdst)
	if bc.shared != nil {
		if sb := bc.shared.publish(m.ISA, m.PC, insts, fused, win); sb != nil {
			return &Block{blockBody: sb.blockBody, shared: true}, nil
		}
	}
	return &Block{blockBody: blockBody{Insts: insts, Fused: fused}}, nil
}

// PublishStats mirrors the block-cache and fusion counters into r under
// the machine.blockcache.* and machine.fusion.* names. Hosts call it from
// a registry collector, so the dispatch loop itself never touches r.
func (m *Machine) PublishStats(r *telemetry.Registry) {
	bs := m.BlockStats()
	r.Counter("machine.blockcache.hits").Set(bs.Hits)
	r.Counter("machine.blockcache.misses").Set(bs.Misses)
	r.Counter("machine.blockcache.shared_hits").Set(bs.SharedHits)
	// The legacy counter is the sum of the partial/full split, so
	// snapshots taken before the split stay metricsdiff-comparable.
	r.Counter("machine.blockcache.invalidations").Set(bs.Invalidations)
	r.Counter("machine.blockcache.invalidations.partial").Set(bs.PartialInvalidations)
	r.Counter("machine.blockcache.invalidations.full").Set(bs.FullInvalidations)
	r.Counter("machine.blockcache.evicted").Set(bs.BlocksEvicted)
	r.Gauge("machine.blockcache.blocks").Set(float64(bs.Blocks))
	r.Gauge("machine.blockcache.hit_ratio").Set(bs.HitRatio())
	fs := m.FusionStats()
	r.Counter("machine.fusion.pairs").Set(fs.PairsFused)
	r.Counter("machine.fusion.blocks.batched").Set(fs.BatchedBlocks)
	r.Counter("machine.fusion.blocks.exact").Set(fs.ExactBlocks)
	r.Counter("machine.fusion.commits").Set(fs.Commits)
}
