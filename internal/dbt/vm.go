package dbt

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/proc"
	"hipstr/internal/psr"
	"hipstr/internal/telemetry"
)

// ErrSecurityKill reports a software-fault-isolation termination: an
// indirect transfer into the code cache, a forged trap vector, or
// untranslatable code.
var ErrSecurityKill = errors.New("dbt: process killed by security policy")

// OptLevel selects the PSR performance optimizations of Table 3.
type OptLevel int

const (
	O0 OptLevel = iota // no optimization
	O1                 // machine block placement, branch inlining/superblocks
	O2                 // + global register cache
	O3                 // + PSR with a register bias
)

// Config configures a PSR virtual machine pair.
type Config struct {
	CodeCacheSize uint32 // bytes per ISA (default 2 MiB)
	RATSize       int    // return address table entries (default 512)
	Opt           OptLevel
	RandPages     int // frame randomization space in pages (default 2)
	// DualTranslate translates each compulsory miss for both ISAs
	// (paper §3.5), reducing later cross-ISA misses.
	DualTranslate bool
	// MigrateProb is the probability of migrating to the other ISA when a
	// security event (indirect control transfer missing the code cache)
	// fires. Migration also requires a Migrator.
	MigrateProb float64
	Seed        int64
	// Telemetry receives the VM's metrics and trace events. Leave nil to
	// have the VM create a private instance; the HIPStR layer injects a
	// shared one so the DBT, migration engine, and timing model report
	// into a single registry.
	Telemetry *telemetry.Telemetry
	// TraceCap bounds the tracer's ring buffer when the VM creates
	// its own Telemetry (long-run trace analysis without a sink needs a
	// deeper ring). Zero or negative selects telemetry.DefaultTraceCap;
	// ignored when Telemetry is injected.
	TraceCap int
	// SharedUnits overrides the process-wide shared translation-unit
	// cache (nil selects dbt.SharedUnits). Tests inject private caches;
	// cold-spawn benchmarks isolate themselves with one.
	SharedUnits *UnitCache
	// NoSharedUnits opts the VM out of the shared unit cache entirely:
	// every translation runs the translator.
	NoSharedUnits bool
}

// DefaultConfig returns the paper's main configuration.
func DefaultConfig() Config {
	return Config{
		CodeCacheSize: 2 << 20,
		RATSize:       512,
		Opt:           O3,
		RandPages:     2,
		DualTranslate: true,
		MigrateProb:   1.0,
	}
}

func (c Config) psrConfig() psr.Config {
	pc := psr.Config{RandPages: c.RandPages}
	if c.Opt >= O1 {
		pc.PruneBoundaryMarshal = true
	}
	if c.Opt >= O2 {
		pc.GlobalRegCache = 3
	}
	if c.Opt >= O3 {
		pc.RegisterBias = true
	}
	return pc
}

// Stats counts VM events.
type Stats struct {
	Translations       [2]uint64
	IndirectDispatch   uint64
	CodeCacheMisses    uint64 // indirect transfers that missed (security events)
	CompulsoryMisses   uint64
	ReturnMisses       uint64 // RAT misses leading to retranslation
	SecurityEvents     uint64
	Migrations         uint64
	SecurityMigrations uint64
	ChainPatches       uint64
	Kills              uint64
	Flushes            uint64
	SyscallsForwarded  uint64
	// Shared translation-unit cache outcomes, attributed to this VM (the
	// cache itself also keeps process-wide aggregates).
	SharedHits       uint64
	SharedMisses     uint64
	SharedInstalls   uint64
	SharedBytesSaved uint64
}

// Migrator transforms the running process's state to the other ISA and
// returns the code-cache address to resume at. It is installed by the
// HIPStR layer (package core); a nil Migrator disables migration.
type Migrator interface {
	// Migrate moves execution to the other ISA, resuming at the source
	// address resumeSrc (expressed in the *current* ISA's text). boundary
	// reports whether register state is in the call-boundary (physical)
	// convention (return events) rather than relocated form (indirect
	// jumps). It returns false when the point is not migration-safe.
	Migrate(vm *VM, resumeSrc uint32, boundary bool) bool
	// MigrateEntry migrates at a callee-entry boundary (indirect call
	// dispatch): the return address has been saved per the current ISA's
	// convention but the callee frame does not exist yet. calleeEntry is
	// the callee's entry address in the current ISA's text.
	MigrateEntry(vm *VM, calleeEntry uint32) bool
}

// VM is a pair of PSR virtual machines (one per ISA) sharing one process.
type VM struct {
	Bin *fatbin.Binary
	P   *proc.Process
	Cfg Config

	Rand      *psr.Randomizer
	policyRng *rand.Rand

	caches [2]*CodeCache
	rats   [2]*RAT
	maps   map[int][2]*psr.Map
	traps  [2]map[uint32]trapMeta
	calls  [2]map[uint32]callMeta
	gen    [2]int

	// shared is the content-addressed unit cache this VM consults and
	// publishes into (nil = opted out).
	shared *UnitCache
	// layoutSeed is the PSR seed behind vm.Rand (Cfg.Seed initially; each
	// Respawn replaces it). Part of the shared cache's layout class.
	layoutSeed int64
	// mapOrder records the symbol-table indices of every relocation map
	// built, in build order; mapDigest folds the same sequence. The
	// randomizer is sequential, so this order fully determines map
	// contents given the seed — Fork replays it to reconstruct identical
	// maps and RNG state, and the shared cache keys on the digest.
	mapOrder  []int
	mapDigest uint64

	Stats    Stats
	Migrator Migrator

	tel           *telemetry.Telemetry
	histTranslate [2]*telemetry.Histogram
	histUnitBytes [2]*telemetry.Histogram

	// PendingMigration requests a performance-policy migration (phase
	// change, §5.2) at the next migration-safe boundary (the next
	// return). The flag clears once a migration succeeds.
	PendingMigration bool

	// LastEventTarget records the raw target of the most recent security
	// event, before validation — the attack analyses use it to observe
	// where a hijacked transfer tried to go.
	LastEventTarget uint32

	progSyscall machine.SyscallHandler

	// xs holds the translator's reusable scratch buffers. Under cache
	// churn the translator runs thousands of times per second; recycling
	// its working set (the assembler's item list, decoded unit, pending
	// trap/call lists) keeps translation off the allocator entirely.
	xs translateScratch
}

// translateScratch recycles one translation's working set into the next.
// The VM is single-threaded, so one set suffices.
type translateScratch struct {
	asm      *isa.Asm
	insts    []isa.Inst
	callCtx  []int
	newTraps []pendingTrap
	newCalls []pendingCall
}

// New boots bin under a fresh PSR virtual machine pair starting on ISA k.
func New(bin *fatbin.Binary, k isa.Kind, cfg Config) (*VM, error) {
	if cfg.CodeCacheSize == 0 {
		cfg.CodeCacheSize = 2 << 20
	}
	if cfg.RATSize == 0 {
		cfg.RATSize = 512
	}
	if cfg.RandPages == 0 {
		cfg.RandPages = 2
	}
	p, err := proc.New(bin, k)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewWithTraceCap(cfg.TraceCap)
	}
	vm := &VM{
		Bin:        bin,
		P:          p,
		Cfg:        cfg,
		Rand:       psr.NewRandomizer(cfg.Seed, cfg.psrConfig()),
		policyRng:  rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		maps:       make(map[int][2]*psr.Map),
		tel:        cfg.Telemetry,
		layoutSeed: cfg.Seed,
		mapDigest:  digestInit,
	}
	if !cfg.NoSharedUnits {
		if vm.shared = cfg.SharedUnits; vm.shared == nil {
			vm.shared = SharedUnits
		}
	}
	vm.registerTelemetry()
	for _, kk := range isa.Kinds {
		vm.caches[kk] = NewCodeCache(kk, cfg.CodeCacheSize)
		// A flush evicts translations without necessarily rewriting their
		// bytes; bump the code generation of the flushed region so the
		// interpreter's block cache drops its predecodes of the evicted
		// units — and nothing else (the other ISA's cache and program
		// text stay warm). Commits and chain patches invalidate their own
		// pages through the write barrier.
		vm.caches[kk].OnFlush = p.Mem.InvalidateCodeRange
		vm.rats[kk] = NewRAT(cfg.RATSize)
		vm.traps[kk] = make(map[uint32]trapMeta)
		vm.calls[kk] = make(map[uint32]callMeta)
		p.Mem.Map("cache."+kk.String(), fatbin.CacheBase(kk), cfg.CodeCacheSize, mem.PermRX)
	}
	p.SetControlHook(vm.onControl)
	vm.progSyscall = p.M.Syscall
	p.M.Syscall = vm.onSyscall
	if err := vm.Start(k); err != nil {
		return nil, err
	}
	return vm, nil
}

// Start (re)enters the program at its entry point on ISA k, translating
// the entry block.
func (vm *VM) Start(k isa.Kind) error {
	vm.P.Reset(k)
	entry := vm.Bin.Func(vm.Bin.EntryFunc).Entry[k]
	cacheAddr, err := vm.require(k, entry, true)
	if err != nil {
		return err
	}
	vm.P.M.PC = cacheAddr
	return nil
}

// Respawn models a crashed worker being re-spawned (paper §5.3): the
// run-time nature of PSR re-randomizes the code cache on both ISAs.
func (vm *VM) Respawn(k isa.Kind, newSeed int64) error {
	vm.Rand = psr.NewRandomizer(newSeed, vm.Cfg.psrConfig())
	vm.maps = make(map[int][2]*psr.Map)
	vm.layoutSeed = newSeed
	vm.mapOrder = vm.mapOrder[:0]
	vm.mapDigest = digestInit
	for _, kk := range isa.Kinds {
		vm.flush(kk)
	}
	return vm.Start(k)
}

// Run executes up to maxSteps instructions.
func (vm *VM) Run(maxSteps uint64) (uint64, error) { return vm.P.Run(maxSteps) }

// Active returns the ISA currently executing.
func (vm *VM) Active() isa.Kind { return vm.P.M.ISA }

// Cache returns the code cache of ISA k.
func (vm *VM) Cache(k isa.Kind) *CodeCache { return vm.caches[k] }

// RAT returns the return address table of ISA k.
func (vm *VM) RATOf(k isa.Kind) *RAT { return vm.rats[k] }

// Telemetry returns the VM's metrics registry and tracer.
func (vm *VM) Telemetry() *telemetry.Telemetry { return vm.tel }

// ResolvePC maps an executing PC on ISA k to the guest source address it
// executes on behalf of: PCs inside ISA k's code cache (translated units,
// including their trap stubs) resolve through the owning translation
// unit's source block; guest-text PCs resolve to themselves. It reports
// false for addresses in neither region (or in a cache gap left by
// alignment before the first unit). Single-goroutine, like every other VM
// accessor: the sampling profiler calls it from the machine's exec hook.
func (vm *VM) ResolvePC(k isa.Kind, pc uint32) (uint32, bool) {
	if c := vm.caches[k]; c.Contains(pc) {
		return c.UnitAt(pc)
	}
	if vm.Bin.FuncAt(k, pc) != nil {
		return pc, true
	}
	return pc, false
}

// ResolvePCClass is ResolvePC plus a dispatch classification: stub
// reports whether pc falls inside a translation unit's deferred trap-stub
// region — VM dispatch overhead (chain traps awaiting patching) rather
// than translated guest code. Guest-text PCs are never stubs.
func (vm *VM) ResolvePCClass(k isa.Kind, pc uint32) (src uint32, stub, ok bool) {
	if c := vm.caches[k]; c.Contains(pc) {
		src, ok = c.UnitAt(pc)
		return src, ok && c.StubAt(pc), ok
	}
	if vm.Bin.FuncAt(k, pc) != nil {
		return pc, false, true
	}
	return pc, false, false
}

// registerTelemetry wires the VM into its registry. The raw Stats / RAT /
// CodeCache fields stay the canonical (and allocation-free) counters; a
// collector mirrors them into the registry at snapshot time, so the
// registry always reports exactly what the legacy accessors do without
// adding work to the dispatch loop. Only genuinely new measurements
// (translation latency, unit sizes) are pushed directly.
func (vm *VM) registerTelemetry() {
	r := vm.tel.Reg
	for _, k := range isa.Kinds {
		vm.histTranslate[k] = r.Histogram("dbt.translate.latency_us." + k.String())
		vm.histUnitBytes[k] = r.Histogram("dbt.translate.unit_bytes." + k.String())
	}
	r.RegisterCollector(func() {
		for _, k := range isa.Kinds {
			ks := k.String()
			r.Counter("dbt.translations." + ks).Set(vm.Stats.Translations[k])
			c := vm.caches[k]
			r.Gauge("dbt.cache." + ks + ".used_bytes").Set(float64(c.Used()))
			r.Gauge("dbt.cache." + ks + ".occupancy").Set(float64(c.Used()) / float64(c.Size))
			r.Gauge("dbt.cache." + ks + ".units").Set(float64(c.NumUnits()))
			r.Gauge("dbt.cache." + ks + ".indirect_targets").Set(float64(c.IndirectTargetCount()))
			r.Counter("dbt.cache." + ks + ".lookups").Set(c.Lookups)
			r.Counter("dbt.cache." + ks + ".hits").Set(c.Hits)
			r.Gauge("dbt.cache." + ks + ".hit_ratio").Set(c.HitRatio())
			rat := vm.rats[k]
			r.Counter("dbt.rat." + ks + ".lookups").Set(rat.Lookups)
			r.Counter("dbt.rat." + ks + ".misses").Set(rat.Misses)
			r.Counter("dbt.rat." + ks + ".evictions").Set(rat.Evictions)
			r.Gauge("dbt.rat." + ks + ".entries").Set(float64(rat.Entries()))
			r.Gauge("dbt.rat." + ks + ".hit_ratio").Set(rat.HitRatio())
		}
		bs := vm.P.M.BlockStats()
		r.Counter("machine.blockcache.hits").Set(bs.Hits)
		r.Counter("machine.blockcache.misses").Set(bs.Misses)
		// The legacy counter is the sum of the partial/full split, so
		// snapshots taken before the split stay metricsdiff-comparable.
		r.Counter("machine.blockcache.invalidations").Set(bs.Invalidations)
		r.Counter("machine.blockcache.invalidations.partial").Set(bs.PartialInvalidations)
		r.Counter("machine.blockcache.invalidations.full").Set(bs.FullInvalidations)
		r.Counter("machine.blockcache.evicted").Set(bs.BlocksEvicted)
		r.Gauge("machine.blockcache.blocks").Set(float64(bs.Blocks))
		r.Gauge("machine.blockcache.hit_ratio").Set(bs.HitRatio())
		fs := vm.P.M.FusionStats()
		r.Counter("machine.fusion.pairs").Set(fs.PairsFused)
		r.Counter("machine.fusion.blocks.batched").Set(fs.BatchedBlocks)
		r.Counter("machine.fusion.blocks.exact").Set(fs.ExactBlocks)
		r.Counter("machine.fusion.commits").Set(fs.Commits)
		st := &vm.Stats
		r.Counter("dbt.indirect_dispatch").Set(st.IndirectDispatch)
		r.Counter("dbt.code_cache_misses").Set(st.CodeCacheMisses)
		r.Counter("dbt.compulsory_misses").Set(st.CompulsoryMisses)
		r.Counter("dbt.return_misses").Set(st.ReturnMisses)
		r.Counter("dbt.security_events").Set(st.SecurityEvents)
		r.Counter("dbt.migrations").Set(st.Migrations)
		r.Counter("dbt.security_migrations").Set(st.SecurityMigrations)
		r.Counter("dbt.chain_patches").Set(st.ChainPatches)
		r.Counter("dbt.kills").Set(st.Kills)
		r.Counter("dbt.flushes").Set(st.Flushes)
		r.Counter("dbt.syscalls_forwarded").Set(st.SyscallsForwarded)
		r.Counter("dbt.sharedcache.hits").Set(st.SharedHits)
		r.Counter("dbt.sharedcache.misses").Set(st.SharedMisses)
		r.Counter("dbt.sharedcache.installs").Set(st.SharedInstalls)
		r.Counter("dbt.sharedcache.bytes_saved").Set(st.SharedBytesSaved)
		r.Gauge("mem.cow.shared_pages").Set(float64(vm.P.Mem.SharedPages()))
		r.Counter("mem.cow.broken_pages").Set(vm.P.Mem.CowBroken())
	})
}

// MapOf returns (building on demand) the relocation map pair of fn.
func (vm *VM) MapOf(fn *fatbin.FuncMeta) [2]*psr.Map { return vm.mapOf(fn) }

// EnsureTranslated returns the cache address of src's translation on ISA
// k, translating on demand. The migration engine uses it to land on warm
// code after a switch.
func (vm *VM) EnsureTranslated(k isa.Kind, src uint32) (uint32, error) {
	return vm.require(k, src, true)
}

// ApplyReRelocate marshals the boundary (physical) register state into
// pmap's relocated form in software — used by the migration engine when
// resuming at a freshly translated continuation.
func (vm *VM) ApplyReRelocate(pmap *psr.Map) error { return vm.applyReRelocate(pmap) }

func (vm *VM) mapOf(fn *fatbin.FuncMeta) [2]*psr.Map {
	if pair, ok := vm.maps[fn.Index]; ok {
		return pair
	}
	pair := vm.Rand.BuildPair(fn)
	vm.maps[fn.Index] = pair
	vm.mapOrder = append(vm.mapOrder, fn.Index)
	vm.mapDigest = foldDigest(vm.mapDigest, uint64(fn.Index))
	return pair
}

func (vm *VM) flush(k isa.Kind) {
	detail := fmt.Sprintf("%d units evicted", vm.caches[k].NumUnits())
	sp := vm.tel.StartSpan("dbt", "cache-flush")
	sp.SetISA(k.String())
	sp.SetDetail(detail)
	vm.tel.Emit(telemetry.Record{Name: telemetry.EvCacheFlush, ISA: k.String(), Detail: detail})
	vm.caches[k].Flush()
	vm.rats[k].Flush()
	vm.traps[k] = make(map[uint32]trapMeta)
	vm.calls[k] = make(map[uint32]callMeta)
	vm.gen[k]++
	vm.Stats.Flushes++
	sp.End()
}

// unitAlign returns the code cache alignment for new units (machine block
// placement aligns to I-cache lines at O1+).
func (vm *VM) unitAlign() uint32 {
	if vm.Cfg.Opt >= O1 {
		return 64
	}
	return 16
}

// require returns the cache address of the translation of src on ISA k,
// translating (and optionally dual-translating) on a miss.
func (vm *VM) require(k isa.Kind, src uint32, dual bool) (uint32, error) {
	if a, ok := vm.caches[k].Lookup(src); ok {
		return a, nil
	}
	vm.Stats.CompulsoryMisses++
	addr, err := vm.translate(k, src)
	if err != nil {
		return 0, err
	}
	if dual && vm.Cfg.DualTranslate {
		// Translate the equivalent block for the other ISA so a future
		// migration lands on warm code (paper §3.5).
		other := k.Other()
		if fn, blk := vm.Bin.BlockAt(k, src); fn != nil && blk != nil && blk.Addr[k] == src {
			if _, ok := vm.caches[other].Lookup(blk.Addr[other]); !ok {
				if _, err := vm.translate(other, blk.Addr[other]); err == nil {
					// Best effort; failures surface when actually executed.
					_ = err
				}
			}
		}
	}
	return addr, nil
}

// translate builds, assembles, and commits one translation unit — or, when
// the shared unit cache already holds a byte-identical unit for this exact
// (binary, ISA, src, PSR layout, cache state) point, installs the shared
// copy without running the translator at all.
func (vm *VM) translate(k isa.Kind, src uint32) (uint32, error) {
	fn := vm.Bin.FuncAt(k, src)
	if fn == nil {
		return 0, fmt.Errorf("%w: %#x on %s", ErrNotText, src, k)
	}
	sp := vm.tel.StartSpan("dbt", "translate")
	sp.SetISA(k.String())
	start := time.Now()
	for attempt := 0; attempt < 2; attempt++ {
		base := vm.caches[k].NextAddr(vm.unitAlign())
		var key unitKey
		if vm.shared != nil {
			key = vm.unitKeyFor(k, src, base)
			if u := vm.shared.lookup(key); u != nil {
				addr, ok := vm.installShared(k, src, u)
				if !ok {
					// Shouldn't happen (the key pins base and cache size),
					// but fall back to the cold path's flush-and-retry.
					vm.flush(k)
					continue
				}
				vm.Stats.SharedHits++
				vm.Stats.SharedBytesSaved += uint64(len(u.code))
				us := float64(time.Since(start)) / float64(time.Microsecond)
				vm.histTranslate[k].Observe(us)
				vm.histUnitBytes[k].Observe(float64(len(u.code)))
				vm.tel.Emit(telemetry.Record{
					Name: telemetry.EvTranslate, ISA: k.String(), Addr: src, CostUS: us,
					Detail: fmt.Sprintf("%d bytes (shared)", len(u.code)),
				})
				if sp.Active() {
					sp.SetCostUS(us)
					sp.SetDetail(fmt.Sprintf("src %#x, %d bytes (shared)", src, len(u.code)))
					sp.End()
				}
				return addr, nil
			}
			vm.Stats.SharedMisses++
		}
		mapN := len(vm.mapOrder)
		lk0, ht0 := vm.caches[k].Lookups, vm.caches[k].Hits
		if vm.xs.asm == nil {
			vm.xs.asm = isa.NewAsm(k, base)
		} else {
			vm.xs.asm.Reset(k, base)
		}
		t := &translator{
			vm:       vm,
			k:        k,
			fn:       fn,
			m:        vm.mapOf(fn)[k],
			a:        vm.xs.asm,
			tmps:     vm.mapOf(fn)[k].FreeRegs,
			insts:    vm.xs.insts[:0],
			callCtx:  vm.xs.callCtx[:0],
			newTraps: vm.xs.newTraps[:0],
			newCalls: vm.xs.newCalls[:0],
		}
		if err := t.run(src); err != nil {
			vm.saveScratch(t)
			return 0, err
		}
		t.flushStubs()
		code, labels, err := t.a.Assemble()
		if err != nil {
			vm.saveScratch(t)
			return 0, fmt.Errorf("dbt: assembling unit for %#x: %w", src, err)
		}
		addr, ok := vm.caches[k].Reserve(uint32(len(code)), vm.unitAlign())
		if !ok {
			vm.saveScratch(t)
			vm.flush(k)
			continue
		}
		if addr != base {
			return 0, fmt.Errorf("dbt: allocation raced: %#x != %#x", addr, base)
		}
		vm.caches[k].Commit(vm.P.Mem, src, addr, code)
		vm.caches[k].AddCovered(t.srcRanges())
		if stubAddr, ok := labels[stubsLabel]; ok {
			vm.caches[k].SetStubStart(stubAddr)
		}
		vm.Stats.Translations[k]++
		for _, pt := range t.newTraps {
			meta := pt.meta
			meta.gen = vm.gen[k]
			if pt.patchLabel != "" {
				meta.patchAddr = labels[pt.patchLabel]
			}
			vm.traps[k][labels[pt.label]] = meta
		}
		for _, pc := range t.newCalls {
			vm.calls[k][labels[pc.label]] = callMeta{srcRet: pc.srcRet, gen: vm.gen[k]}
		}
		if vm.shared != nil {
			vm.publishShared(key, addr, code, labels, t, mapN, lk0, ht0)
		}
		us := float64(time.Since(start)) / float64(time.Microsecond)
		vm.histTranslate[k].Observe(us)
		vm.histUnitBytes[k].Observe(float64(len(code)))
		vm.tel.Emit(telemetry.Record{
			Name: telemetry.EvTranslate, ISA: k.String(), Addr: src, CostUS: us,
			Detail: fmt.Sprintf("%d bytes", len(code)),
		})
		vm.saveScratch(t)
		if sp.Active() {
			sp.SetCostUS(us)
			sp.SetDetail(fmt.Sprintf("src %#x, %d bytes", src, len(code)))
			sp.End()
		}
		return addr, nil
	}
	return 0, fmt.Errorf("dbt: unit for %#x exceeds code cache", src)
}

// saveScratch returns a finished translator's (possibly grown) buffers to
// the scratch pool for the next translation.
func (vm *VM) saveScratch(t *translator) {
	vm.xs.insts = t.insts
	vm.xs.callCtx = t.callCtx
	vm.xs.newTraps = t.newTraps
	vm.xs.newCalls = t.newCalls
}

// onControl implements the modified call/return macro-ops (paper §5.1)
// for execution inside the code cache.
func (vm *VM) onControl(m *machine.Machine, in *isa.Inst, kind machine.ControlKind, target, retAddr uint32) (uint32, uint32, error) {
	k := m.ISA
	if !vm.caches[k].Contains(in.Addr) {
		return target, retAddr, nil
	}
	switch kind {
	case machine.CtlCall:
		meta, ok := vm.calls[k][in.Addr]
		if !ok {
			return 0, 0, fmt.Errorf("%w: unregistered call site %#x", ErrSecurityKill, in.Addr)
		}
		cacheRet := in.Addr + uint32(in.Size)
		vm.rats[k].Insert(meta.srcRet, cacheRet)
		return target, meta.srcRet, nil
	case machine.CtlRet:
		if target == proc.ExitAddr {
			return target, retAddr, nil
		}
		if vm.PendingMigration && vm.Migrator != nil {
			if vm.Migrator.Migrate(vm, target, true) {
				vm.PendingMigration = false
				vm.Stats.Migrations++
				vm.tel.Emit(telemetry.Record{
					Name: telemetry.EvPolicy, ISA: vm.P.M.ISA.String(), Addr: target,
					Detail: "phase-migrate",
				})
				return vm.P.M.PC, retAddr, nil
			}
		}
		if cacheRet, ok := vm.rats[k].Lookup(target); ok {
			return cacheRet, retAddr, nil
		}
		// RAT miss: either an evicted translation (legitimate) or a
		// corrupted return address (attack). The VM makes no attempt to
		// distinguish (paper §3.5): this is a code-cache-miss security
		// event.
		vm.Stats.ReturnMisses++
		vm.tel.Emit(telemetry.Record{Name: telemetry.EvRATMiss, ISA: k.String(), Addr: target})
		newPC, err := vm.securityEvent(k, target, true)
		if err != nil {
			return 0, 0, err
		}
		return newPC, retAddr, nil
	}
	return target, retAddr, nil
}

// applyReRelocate performs the physical->relocated register marshal in
// software: recovery paths (RAT misses) enter freshly translated units
// that expect relocated state, while returns leave state in the boundary
// convention.
func (vm *VM) applyReRelocate(pmap *psr.Map) error {
	m := vm.P.M
	sp := m.SP()
	var snap [16]uint32
	copy(snap[:], m.Regs[:])
	for _, r := range relocatedRegs(pmap, m.ISA) {
		l := pmap.LocOfReg(r)
		if l.Kind == psr.LocReg {
			m.Regs[l.Reg] = snap[r]
		} else if err := m.Mem.WriteWord(sp+uint32(l.Off), snap[r]); err != nil {
			return err
		}
	}
	return nil
}

// securityEvent handles an indirect control transfer that missed the code
// cache: probabilistically migrate to the other ISA, then translate the
// target (wherever it points — legitimate block or gadget) and continue.
// returnBoundary marks events raised by returns, whose register state is
// in the boundary (physical) convention and must be re-relocated before
// entering a freshly translated continuation.
func (vm *VM) securityEvent(k isa.Kind, srcTarget uint32, returnBoundary bool) (uint32, error) {
	vm.Stats.CodeCacheMisses++
	vm.Stats.SecurityEvents++
	vm.LastEventTarget = srcTarget
	vm.tel.Emit(telemetry.Record{Name: telemetry.EvSecurity, ISA: k.String(), Addr: srcTarget})
	srcTarget, k2, err := vm.securityEventNormalize(k, srcTarget)
	if err != nil {
		return 0, err
	}
	k = k2
	if vm.Migrator != nil {
		if vm.policyRng.Float64() < vm.Cfg.MigrateProb {
			vm.tel.Emit(telemetry.Record{
				Name: telemetry.EvPolicy, ISA: k.String(), Addr: srcTarget,
				Detail: "security-migrate",
			})
			if vm.Migrator.Migrate(vm, srcTarget, returnBoundary) {
				vm.Stats.Migrations++
				vm.Stats.SecurityMigrations++
				return vm.P.M.PC, nil
			}
		} else {
			vm.tel.Emit(telemetry.Record{
				Name: telemetry.EvPolicy, ISA: k.String(), Addr: srcTarget,
				Detail: "stay",
			})
		}
	}
	pc, err := vm.require(k, srcTarget, true)
	if err != nil {
		return 0, err
	}
	if returnBoundary {
		if fn := vm.Bin.FuncAt(k, srcTarget); fn != nil {
			if err := vm.applyReRelocate(vm.mapOf(fn)[k]); err != nil {
				return 0, err
			}
		}
	}
	return pc, nil
}

// securityEventNormalize validates a security event's target, counting and
// tracing the kill when validation fails.
func (vm *VM) securityEventNormalize(k isa.Kind, srcTarget uint32) (uint32, isa.Kind, error) {
	t2, k2, err := vm.normalizeCodeAddr(k, srcTarget)
	if err != nil {
		vm.Stats.Kills++
		vm.tel.Emit(telemetry.Record{
			Name: telemetry.EvKill, ISA: k.String(), Addr: srcTarget, Detail: err.Error(),
		})
		return 0, k, err
	}
	return t2, k2, nil
}

// normalizeCodeAddr validates a code address and, when it points into the
// other ISA's text (a function pointer materialized before a migration),
// maps it to the current ISA via the symbol table. Targets inside either
// code cache are rejected outright (software fault isolation, §5.1).
func (vm *VM) normalizeCodeAddr(k isa.Kind, addr uint32) (uint32, isa.Kind, error) {
	for _, kk := range isa.Kinds {
		if vm.caches[kk].Contains(addr) {
			vm.Stats.Kills++
			vm.tel.Emit(telemetry.Record{
				Name: telemetry.EvKill, ISA: k.String(), Addr: addr,
				Detail: "indirect transfer into code cache",
			})
			return 0, k, fmt.Errorf("%w: indirect transfer into code cache at %#x", ErrSecurityKill, addr)
		}
	}
	if vm.Bin.FuncAt(k, addr) != nil {
		return addr, k, nil
	}
	other := k.Other()
	if fn := vm.Bin.FuncAt(other, addr); fn != nil {
		// Cross-ISA code pointer: prefer exact block correspondence, then
		// function entry.
		if _, blk := vm.Bin.BlockAt(other, addr); blk != nil && blk.Addr[other] == addr {
			return blk.Addr[k], k, nil
		}
		if fn.Entry[other] == addr {
			return fn.Entry[k], k, nil
		}
		return fn.Entry[k], k, nil
	}
	return 0, k, fmt.Errorf("%w: indirect transfer to non-text address %#x", ErrSecurityKill, addr)
}

// onSyscall dispatches program syscalls and VM traps.
func (vm *VM) onSyscall(m *machine.Machine, vector int32) error {
	k := m.ISA
	switch vector {
	case vecSyscall:
		vm.Stats.SyscallsForwarded++
		return vm.progSyscall(m, 0x80)
	case vecIndirect, vecChain, vecKill, vecPopPC:
		instrSize := uint32(2) // x86 int imm8
		if k == isa.ARM {
			instrSize = 4
		}
		key := m.PC - instrSize
		meta, ok := vm.traps[k][key]
		if !ok {
			return fmt.Errorf("%w: forged or stale trap at %#x", ErrSecurityKill, key)
		}
		switch vector {
		case vecKill:
			vm.Stats.Kills++
			vm.tel.Emit(telemetry.Record{
				Name: telemetry.EvKill, ISA: k.String(), Addr: key,
				Detail: "untranslatable code reached",
			})
			return fmt.Errorf("%w: untranslatable code reached (trap at %#x)", ErrSecurityKill, key)
		case vecChain:
			return vm.handleChain(m, k, &meta)
		case vecIndirect:
			return vm.handleIndirect(m, k, &meta)
		case vecPopPC:
			return vm.handlePopPC(m, k)
		}
	}
	return fmt.Errorf("dbt: unknown syscall vector %#x", vector)
}

// handleChain translates the target of a direct branch and patches the
// branch site to jump straight into the cache next time.
func (vm *VM) handleChain(m *machine.Machine, k isa.Kind, meta *trapMeta) error {
	cacheAddr, err := vm.require(k, meta.srcTarget, true)
	if err != nil {
		return err
	}
	if meta.gen == vm.gen[k] {
		in := isa.Inst{Op: meta.patchOp, Cond: meta.patchCond, Addr: meta.patchAddr, Target: cacheAddr}
		b, err := isa.Encode(k, &in)
		if err != nil {
			return fmt.Errorf("dbt: patch encode: %w", err)
		}
		vm.caches[k].Patch(vm.P.Mem, meta.patchAddr, b)
		vm.Stats.ChainPatches++
	}
	m.PC = cacheAddr
	return nil
}

// handleIndirect dispatches an indirect call or jump: evaluate the target
// from relocated state, police it, and transfer — marshaling staged
// arguments and updating the RAT for calls.
func (vm *VM) handleIndirect(m *machine.Machine, k isa.Kind, meta *trapMeta) error {
	vm.Stats.IndirectDispatch++
	fn := vm.Bin.Funcs[meta.fnIndex]
	pmap := vm.mapOf(fn)[k]
	var target uint32
	var err error
	if meta.targetSlot != 0 {
		// Indirect call: the target was staged before the boundary marshal.
		target, err = m.Mem.ReadWord(m.SP() + uint32(meta.targetSlot-meta.delta))
	} else {
		target, err = vm.evalOperand(m, pmap, meta.operand, meta.delta, meta.physState)
	}
	if err != nil {
		return fmt.Errorf("dbt: indirect target unavailable: %w", err)
	}
	target, k, err = vm.normalizeCodeAddr(k, target)
	if err != nil {
		return err
	}
	cacheAddr, hit := vm.caches[k].Lookup(target)
	if !meta.isCall {
		if hit {
			vm.caches[k].MarkIndirectTarget(target)
			m.PC = cacheAddr
			return nil
		}
		// Code-cache miss on an indirect jump: the security event (may
		// migrate; register state is in relocated form).
		newPC, err := vm.securityEvent(k, target, false)
		if err != nil {
			return err
		}
		vm.caches[vm.P.M.ISA].MarkIndirectTarget(target)
		m.PC = newPC
		return nil
	}
	// Indirect call: complete the dispatch on the current ISA first.
	genBefore := vm.gen[k]
	if !hit {
		vm.Stats.CodeCacheMisses++
		vm.Stats.SecurityEvents++
		vm.tel.Emit(telemetry.Record{Name: telemetry.EvSecurity, ISA: k.String(), Addr: target})
		cacheAddr, err = vm.require(k, target, true)
		if err != nil {
			vm.Stats.Kills++
			vm.tel.Emit(telemetry.Record{
				Name: telemetry.EvKill, ISA: k.String(), Addr: target, Detail: err.Error(),
			})
			return fmt.Errorf("%w: %v", ErrSecurityKill, err)
		}
	}
	vm.caches[k].MarkIndirectTarget(target)
	// Relocate staged arguments into the callee's randomized convention,
	// save the source return address per the ISA, update the RAT.
	callee := vm.Bin.FuncAt(k, target)
	if callee != nil && callee.Entry[k] == target {
		cmap := vm.mapOf(callee)[k]
		sp := m.SP()
		for i := 0; i < callee.NumArgs; i++ {
			v, err := m.Mem.ReadWord(sp + uint32(pmap.StageOff+4*int32(i)-meta.delta))
			if err != nil {
				return err
			}
			if err := m.Mem.WriteWord(sp+uint32(cmap.ArgOff[i]), v); err != nil {
				return err
			}
		}
	}
	// Register the return mapping — unless translating the callee flushed
	// the cache, in which case this unit's continuation is gone and the
	// return must take the RAT-miss recovery path instead.
	if vm.gen[k] == genBefore {
		cacheRet := m.PC // instruction after the trap
		vm.rats[m.ISA].Insert(meta.srcRet, cacheRet)
	}
	if m.ISA == isa.X86 {
		sp := m.SP() - 4
		if err := m.Mem.WriteWord(sp, meta.srcRet); err != nil {
			return err
		}
		m.SetSP(sp)
	} else {
		m.Regs[isa.LR] = meta.srcRet
	}
	m.PC = cacheAddr
	// A missing indirect call target is a potential breach: migrate to
	// the other ISA with some probability (paper §3.5), at the callee
	// entry boundary.
	if !hit && vm.Migrator != nil {
		if vm.policyRng.Float64() < vm.Cfg.MigrateProb {
			vm.tel.Emit(telemetry.Record{
				Name: telemetry.EvPolicy, ISA: k.String(), Addr: target,
				Detail: "security-migrate-entry",
			})
			if vm.Migrator.MigrateEntry(vm, target) {
				vm.Stats.Migrations++
				vm.Stats.SecurityMigrations++
			}
		} else {
			vm.tel.Emit(telemetry.Record{
				Name: telemetry.EvPolicy, ISA: k.String(), Addr: target,
				Detail: "stay",
			})
		}
	}
	return nil
}

// handlePopPC completes an ARM pop-multiple that included PC: the popped
// word is a source return address routed through the RAT.
func (vm *VM) handlePopPC(m *machine.Machine, k isa.Kind) error {
	sp := m.SP()
	srcRet, err := m.Mem.ReadWord(sp)
	if err != nil {
		return err
	}
	m.SetSP(sp + 4)
	if srcRet == proc.ExitAddr {
		m.Halted = true
		vm.P.Exited = true
		vm.P.ExitCode = m.Regs[isa.R0]
		return nil
	}
	if cacheRet, ok := vm.rats[k].Lookup(srcRet); ok {
		m.PC = cacheRet
		return nil
	}
	vm.Stats.ReturnMisses++
	vm.tel.Emit(telemetry.Record{Name: telemetry.EvRATMiss, ISA: k.String(), Addr: srcRet})
	newPC, err := vm.securityEvent(k, srcRet, true)
	if err != nil {
		return err
	}
	m.PC = newPC
	return nil
}

// evalOperand reads an indirect-transfer target from program state. When
// physState is set (indirect calls marshal to the boundary convention
// before trapping), registers are read physically; otherwise through the
// relocation map. Frame-resident values are always read through the map.
func (vm *VM) evalOperand(m *machine.Machine, pmap *psr.Map, o isa.Operand, delta int32, physState bool) (uint32, error) {
	sp := m.SP()
	regVal := func(r isa.Reg) (uint32, error) {
		if physState || r == isa.StackReg(m.ISA) {
			return m.Regs[r], nil
		}
		l := pmap.LocOfReg(r)
		if l.Kind == psr.LocReg {
			return m.Regs[l.Reg], nil
		}
		return m.Mem.ReadWord(sp + uint32(l.Off-delta))
	}
	switch o.Kind {
	case isa.OpdReg:
		return regVal(o.Reg)
	case isa.OpdMem:
		mr := o.Mem
		if mr.HasBase && mr.Base == isa.StackReg(m.ISA) && !mr.HasIndex {
			xc := mr.Disp + delta
			off := remapFrameOff(pmap, xc, nil, false)
			return m.Mem.ReadWord(sp + uint32(off-delta))
		}
		var ea uint32 = uint32(mr.Disp)
		if mr.HasBase {
			v, err := regVal(mr.Base)
			if err != nil {
				return 0, err
			}
			ea += v
		}
		if mr.HasIndex {
			v, err := regVal(mr.Index)
			if err != nil {
				return 0, err
			}
			s := uint32(mr.Scale)
			if s == 0 {
				s = 1
			}
			ea += v * s
		}
		return m.Mem.ReadWord(ea)
	}
	return 0, fmt.Errorf("dbt: bad indirect operand")
}
