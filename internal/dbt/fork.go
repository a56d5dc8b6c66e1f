package dbt

import (
	"math/rand"

	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/mem"
	"hipstr/internal/proc"
	"hipstr/internal/psr"
	"hipstr/internal/telemetry"
)

// VMSnapshot is an immutable point-in-time image of a running VM: the
// guest address space frozen copy-on-write, the machine register state,
// both code caches and RATs, trap/call registries, and the PSR layout
// lineage (seed + map build order). Snapshots are cheap — O(page-table),
// zero page copies — and safe to Fork from many goroutines concurrently.
//
// A fleet host keeps one booted "prototype" VM per binary and snapshots
// it once: admitting the Nth tenant is then a Fork (alias every page,
// clone the translation metadata) instead of a boot (load the image,
// translate the entry). Killing a breached guest and respawning it with a
// fresh PSR seed reuses the same snapshot through Respawn.
type VMSnapshot struct {
	bin   *fatbin.Binary
	cfg   Config // normalized; Telemetry cleared (each fork gets its own)
	mem   *mem.Snapshot
	state machine.State
	stats Stats

	caches [2]*CodeCache
	rats   [2]*RAT
	traps  [2]map[uint32]trapMeta
	calls  [2]map[uint32]callMeta
	gen    [2]int

	// blocks is the decoded-block table every Fork and Respawn of this
	// snapshot shares: siblings run the same bytes at the same addresses,
	// so each block is decoded once per snapshot, not once per guest.
	blocks *machine.SharedBlocks

	layoutSeed int64
	mapOrder   []int

	pendingMigration bool
	lastEventTarget  uint32
	trace            []uint32
	exited           bool
	exitCode         uint32
	execves          []proc.ExecveEvent
}

// ForkConfig parameterizes one fork of a snapshot.
type ForkConfig struct {
	// Telemetry receives the fork's metrics and traces. Leave nil for a
	// private instance (forks never share the prototype's registry: its
	// collector reads the prototype's live state).
	Telemetry *telemetry.Telemetry
	// TraceCap bounds the private tracer ring when Telemetry is nil.
	TraceCap int
}

// Snapshot freezes the VM's complete state. The VM keeps running
// afterwards; its next write to any page copies first (CoW), so the
// snapshot stays pristine. Cost is O(page-table + translation metadata).
func (vm *VM) Snapshot() *VMSnapshot {
	cfg := vm.Cfg
	cfg.Telemetry = nil
	s := &VMSnapshot{
		bin:              vm.Bin,
		cfg:              cfg,
		mem:              vm.P.Mem.Snapshot(),
		state:            vm.P.M.State,
		stats:            vm.Stats,
		gen:              vm.gen,
		layoutSeed:       vm.layoutSeed,
		mapOrder:         append([]int(nil), vm.mapOrder...),
		pendingMigration: vm.PendingMigration,
		lastEventTarget:  vm.LastEventTarget,
		trace:            append([]uint32(nil), vm.P.Trace...),
		exited:           vm.P.Exited,
		exitCode:         vm.P.ExitCode,
		execves:          append([]proc.ExecveEvent(nil), vm.P.Execves...),
		blocks:           new(machine.SharedBlocks),
	}
	for _, k := range isa.Kinds {
		s.caches[k] = vm.caches[k].Clone()
		s.rats[k] = vm.rats[k].Clone()
		s.traps[k] = cloneTraps(vm.traps[k])
		s.calls[k] = cloneCalls(vm.calls[k])
	}
	return s
}

// Fork materializes a new VM continuing exactly where the snapshot was
// taken: same registers, same translated code (aliased copy-on-write),
// same RAT and trap state, and — via map-build replay — the identical
// relocation maps and PSR RNG stream. A fork of a freshly booted
// prototype is indistinguishable from a cold New of the same config; the
// only post-fork divergence from the prototype's own continuation is the
// migration-policy RNG, which restarts from the seed (its state is not
// extractable from math/rand).
func (s *VMSnapshot) Fork(fc ForkConfig) (*VM, error) {
	vm, p := s.newShell(s.cfg, fc)
	p.M.State = s.state
	p.Trace = append([]uint32(nil), s.trace...)
	p.Exited = s.exited
	p.ExitCode = s.exitCode
	p.Execves = append([]proc.ExecveEvent(nil), s.execves...)
	for _, k := range isa.Kinds {
		vm.caches[k] = s.caches[k].Clone()
		vm.caches[k].OnFlush = p.Mem.InvalidateCodeRange
		vm.rats[k] = s.rats[k].Clone()
		vm.traps[k] = cloneTraps(s.traps[k])
		vm.calls[k] = cloneCalls(s.calls[k])
	}
	vm.gen = s.gen
	vm.Stats = s.stats
	vm.PendingMigration = s.pendingMigration
	vm.LastEventTarget = s.lastEventTarget
	// The layout lineage may differ from cfg.Seed if the prototype had
	// Respawned in place before the snapshot.
	vm.layoutSeed = s.layoutSeed
	vm.rebuildMaps(s.mapOrder)
	return vm, nil
}

// Respawn materializes a fresh guest from the snapshot under a new PSR
// seed: the paper's kill+respawn breach response (§5.3) at O(dirty pages)
// cost. Memory forks copy-on-write from the snapshot image; relocation
// maps, code caches, RATs, and trap registries start empty (re-randomized
// under newSeed), and execution re-enters at the program entry on ISA k.
// Stale translated bytes from the snapshot's cache region are unreachable
// — the entry maps are empty and indirect transfers into cache regions
// are policed — and are overwritten copy-on-write as translation refills.
func (s *VMSnapshot) Respawn(k isa.Kind, newSeed int64, fc ForkConfig) (*VM, error) {
	cfg := s.cfg
	cfg.Seed = newSeed
	vm, p := s.newShell(cfg, fc)
	for _, kk := range isa.Kinds {
		vm.caches[kk] = NewCodeCache(kk, cfg.CodeCacheSize)
		vm.caches[kk].OnFlush = p.Mem.InvalidateCodeRange
		vm.rats[kk] = NewRAT(cfg.RATSize)
		vm.traps[kk] = make(map[uint32]trapMeta)
		vm.calls[kk] = make(map[uint32]callMeta)
	}
	if err := vm.Start(k); err != nil {
		return nil, err
	}
	return vm, nil
}

// newShell builds the common part of a forked VM: the CoW memory fork,
// the adopted process sharing the snapshot's decoded blocks, hooks,
// telemetry, and the PSR randomizer seeded from cfg.Seed (rebuildMaps
// replays it forward for continuation forks).
func (s *VMSnapshot) newShell(cfg Config, fc ForkConfig) (*VM, *proc.Process) {
	cfg.Telemetry = fc.Telemetry
	cfg.TraceCap = fc.TraceCap
	if cfg.Telemetry == nil {
		cfg.Telemetry = telemetry.NewWithTraceCap(cfg.TraceCap)
	}
	ram := s.mem.Fork()
	p := proc.Adopt(s.bin, machine.State{ISA: s.state.ISA}, ram)
	p.M.ShareBlocks(s.blocks)
	vm := &VM{
		Bin:        s.bin,
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
	p.SetControlHook(vm.onControl)
	vm.progSyscall = p.M.Syscall
	p.M.Syscall = vm.onSyscall
	return vm, p
}

// Fork is Snapshot().Fork(fc) in one step — the warm-spawn path when the
// caller does not need to keep the snapshot for further forks.
func (vm *VM) Fork(fc ForkConfig) (*VM, error) {
	return vm.Snapshot().Fork(fc)
}

// rebuildMaps replays a recorded map-build order against a fresh
// randomizer seeded with layoutSeed. Because psr.Randomizer draws are
// consumed strictly during Build, replaying the same builds in the same
// order reconstructs byte-identical maps AND leaves the RNG stream in the
// same position — so translations after the fork match translations the
// prototype would have produced.
func (vm *VM) rebuildMaps(order []int) {
	vm.Rand = psr.NewRandomizer(vm.layoutSeed, vm.Cfg.psrConfig())
	for _, idx := range order {
		vm.mapOf(vm.Bin.Funcs[idx])
	}
}

func cloneTraps(m map[uint32]trapMeta) map[uint32]trapMeta {
	n := make(map[uint32]trapMeta, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}

func cloneCalls(m map[uint32]callMeta) map[uint32]callMeta {
	n := make(map[uint32]callMeta, len(m))
	for k, v := range m {
		n[k] = v
	}
	return n
}
