// Package migrate implements PSR-aware cross-ISA execution migration
// (paper §5.2): at a migration point, every relocatable stack object of
// every live frame is fetched from its randomized location under the
// source ISA's relocation map and moved to its randomized location under
// the target ISA's map; return addresses are rewritten through the
// cross-ISA call-site table; and live register state is transformed using
// the extended symbol table's per-block value homes and the callee-save
// chains of both ISAs.
package migrate

import (
	"errors"
	"fmt"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/proc"
	"hipstr/internal/psr"
	"hipstr/internal/telemetry"
)

// ErrUnsafe reports that the current execution point is not
// migration-safe.
var ErrUnsafe = errors.New("migrate: not a migration-safe point")

// Policy controls migration-safety decisions.
type Policy struct {
	// OnDemand enables the on-demand transformation of §5.2: register-
	// resident live values are fetched and transformed at migration time.
	// Without it, only points whose live state is entirely memory-
	// resident are migration-safe (the prior work's ~45% regime).
	OnDemand bool
	// Capacity bounds how many register-resident live-ins the on-demand
	// transformer can move per frame before clobbering its scratch space.
	Capacity int
	// MaxFrames bounds the stack walk (runaway protection).
	MaxFrames int
}

// DefaultPolicy mirrors the paper's on-demand configuration.
func DefaultPolicy() Policy {
	return Policy{OnDemand: true, Capacity: 6, MaxFrames: 4096}
}

// Stats counts migration outcomes.
type Stats struct {
	Attempts     uint64
	Migrations   uint64
	Unsafe       uint64
	FramesMoved  uint64
	ObjectsMoved uint64
	// TotalCostMicros accumulates the modeled migration cost.
	TotalCostMicros float64
	// LastCostMicros is the cost of the most recent migration.
	LastCostMicros float64
}

// Engine implements dbt.Migrator.
type Engine struct {
	Policy Policy
	Stats  Stats
	// DebugLastErr records why the most recent attempt was refused.
	DebugLastErr error

	tel       *telemetry.Telemetry
	histCost  [2]*telemetry.Histogram // per target ISA
	histPhase [NumPhases]*telemetry.Histogram
}

// New returns a migration engine with the default policy.
func New() *Engine { return &Engine{Policy: DefaultPolicy()} }

// BindTelemetry points the engine at a registry + tracer: per-direction
// migration-cost histograms are pushed as migrations complete, and a
// collector mirrors the raw Stats fields at snapshot time.
func (e *Engine) BindTelemetry(t *telemetry.Telemetry) {
	if t == nil || t.Reg == nil {
		return
	}
	e.tel = t
	r := t.Reg
	for _, k := range isa.Kinds {
		e.histCost[k] = r.Histogram("migrate.cost_us.to_" + k.String())
	}
	for i, name := range PhaseNames {
		e.histPhase[i] = r.Histogram("migrate.phase." + name)
	}
	r.RegisterCollector(func() {
		r.Counter("migrate.attempts").Set(e.Stats.Attempts)
		r.Counter("migrate.migrations").Set(e.Stats.Migrations)
		r.Counter("migrate.unsafe").Set(e.Stats.Unsafe)
		r.Counter("migrate.frames_moved").Set(e.Stats.FramesMoved)
		r.Counter("migrate.objects_moved").Set(e.Stats.ObjectsMoved)
		r.Gauge("migrate.total_cost_us").Set(e.Stats.TotalCostMicros)
		r.Gauge("migrate.last_cost_us").Set(e.Stats.LastCostMicros)
	})
}

// frame describes one live stack frame discovered by the walk.
type frame struct {
	fn     *fatbin.FuncMeta
	base   uint32 // SP value of the frame (post-prologue)
	block  *fatbin.BlockMeta
	retA   uint32 // return address value (source ISA); ExitAddr at the root
	retB   uint32 // rewritten return address (target ISA)
	retOff int32  // canonical return-address offset
}

// Migrate implements dbt.Migrator for resume-point migrations (returns and
// indirect jumps).
func (e *Engine) Migrate(vm *dbt.VM, resumeSrc uint32, boundary bool) bool {
	e.Stats.Attempts++
	e.tel.Emit(telemetry.Record{
		Name: telemetry.EvMigrateBegin, ISA: vm.Active().String(), Addr: resumeSrc,
	})
	sp := e.tel.StartSpan("migrate", "migrate")
	sp.SetISA(vm.Active().String())
	if err := e.migrateResume(vm, resumeSrc, boundary, sp); err != nil {
		sp.SetDetail(err.Error())
		sp.End()
		e.refused(err)
		return false
	}
	e.Stats.Migrations++
	sp.SetISA(vm.Active().String())
	sp.SetCostUS(e.Stats.LastCostMicros)
	sp.End()
	e.completed(vm, resumeSrc)
	return true
}

// MigrateEntry implements dbt.Migrator for callee-entry migrations
// (indirect call dispatch).
func (e *Engine) MigrateEntry(vm *dbt.VM, calleeEntry uint32) bool {
	e.Stats.Attempts++
	e.tel.Emit(telemetry.Record{
		Name: telemetry.EvMigrateBegin, ISA: vm.Active().String(), Addr: calleeEntry,
		Detail: "callee-entry",
	})
	sp := e.tel.StartSpan("migrate", "migrate")
	sp.SetISA(vm.Active().String())
	sp.SetDetail("callee-entry")
	if err := e.migrateEntry(vm, calleeEntry, sp); err != nil {
		sp.SetDetail(err.Error())
		sp.End()
		e.refused(err)
		return false
	}
	e.Stats.Migrations++
	sp.SetISA(vm.Active().String())
	sp.SetCostUS(e.Stats.LastCostMicros)
	sp.End()
	e.completed(vm, calleeEntry)
	return true
}

func (e *Engine) refused(err error) {
	e.Stats.Unsafe++
	e.DebugLastErr = err
	e.tel.Emit(telemetry.Record{Name: telemetry.EvMigrateEnd, Detail: err.Error()})
}

func (e *Engine) completed(vm *dbt.VM, addr uint32) {
	e.tel.Emit(telemetry.Record{
		Name: telemetry.EvMigrateEnd, ISA: vm.Active().String(), Addr: addr,
		CostUS: e.Stats.LastCostMicros,
	})
}

func (e *Engine) migrateResume(vm *dbt.VM, resumeSrc uint32, boundary bool, parent telemetry.Span) error {
	a := vm.Active()
	b := a.Other()
	m := vm.P.M

	// Child spans on error paths are abandoned un-ended (never recorded);
	// the parent span carries the refusal detail instead.
	child := parent.StartChild(PhaseNames[PhaseSafepointWait])
	fn, blk := vm.Bin.BlockAt(a, resumeSrc)
	if fn == nil || blk == nil {
		return fmt.Errorf("%w: resume %#x outside known blocks", ErrUnsafe, resumeSrc)
	}
	var resumeB uint32
	switch {
	case blk.Addr[a] == resumeSrc:
		resumeB = blk.Addr[b]
	default:
		cs, ok := fn.CallSiteByRet(a, resumeSrc)
		if !ok {
			// Mid-block, non-call-site address (e.g. a gadget): no
			// cross-ISA equivalent exists.
			return fmt.Errorf("%w: resume %#x is not an equivalence point", ErrUnsafe, resumeSrc)
		}
		resumeB = cs.RetAddr[b]
	}
	child.End()

	child = parent.StartChild(PhaseNames[PhaseRatRebuild])
	frames, err := e.walk(vm, a, fn, blk, m.SP())
	if err != nil {
		return err
	}
	child.SetCostUS(CostPhases(b, len(frames), 0)[PhaseRatRebuild])
	child.End()

	child = parent.StartChild(PhaseNames[PhaseTransform])
	regs0, err := e.sourceRegs(vm, a, frames[0], boundary)
	if err != nil {
		return err
	}
	regsB, objects, err := e.transform(vm, a, frames, regs0)
	if err != nil {
		return err
	}

	// Install the target register file: callee-saved state plus the
	// return register and the stack pointer.
	sp := m.SP()
	retVal := regs0[retRegOf(a)]
	copy(m.Regs[:], regsB[:])
	m.ISA = b
	m.SetSP(sp)
	m.Regs[retRegOf(b)] = retVal
	m.Flags = machine.Flags{}
	child.SetCostUS(CostPhases(b, 0, objects)[PhaseTransform])
	child.End()

	child = parent.StartChild(PhaseNames[PhaseRetranslate])
	cacheAddr, err := vm.EnsureTranslated(b, resumeB)
	if err != nil {
		return err
	}
	child.SetCostUS(CostPhases(b, 0, 0)[PhaseRetranslate])
	child.End()

	child = parent.StartChild(PhaseNames[PhaseResume])
	// Freshly translated continuations expect relocated register state.
	if err := vm.ApplyReRelocate(vm.MapOf(frames[0].fn)[b]); err != nil {
		return err
	}
	m.PC = cacheAddr
	e.account(b, len(frames), objects)
	child.SetCostUS(CostPhases(b, 0, 0)[PhaseResume])
	child.End()
	return nil
}

func (e *Engine) migrateEntry(vm *dbt.VM, calleeEntry uint32, parent telemetry.Span) error {
	a := vm.Active()
	b := a.Other()
	m := vm.P.M

	child := parent.StartChild(PhaseNames[PhaseSafepointWait])
	callee := vm.Bin.FuncAt(a, calleeEntry)
	if callee == nil || callee.Entry[a] != calleeEntry {
		return fmt.Errorf("%w: %#x is not a function entry", ErrUnsafe, calleeEntry)
	}
	// Recover the just-saved return address per the source convention.
	var srcRetA, callerBase uint32
	if a == isa.X86 {
		v, err := m.Mem.ReadWord(m.SP())
		if err != nil {
			return err
		}
		srcRetA = v
		callerBase = m.SP() + 4
	} else {
		srcRetA = m.Regs[isa.LR]
		callerBase = m.SP()
	}
	var srcRetB uint32
	var caller *fatbin.FuncMeta
	var callerBlk *fatbin.BlockMeta
	if srcRetA == proc.ExitAddr {
		srcRetB = proc.ExitAddr
	} else {
		caller = vm.Bin.FuncAt(a, srcRetA)
		if caller == nil {
			return fmt.Errorf("%w: return address %#x not in text", ErrUnsafe, srcRetA)
		}
		cs, ok := caller.CallSiteByRet(a, srcRetA)
		if !ok {
			return fmt.Errorf("%w: return address %#x is not a call site", ErrUnsafe, srcRetA)
		}
		srcRetB = cs.RetAddr[b]
		_, callerBlk = vm.Bin.BlockAt(a, srcRetA)
		if callerBlk == nil {
			return fmt.Errorf("%w: call site without block", ErrUnsafe)
		}
	}
	child.End()

	var frames []frame
	var regs0 [16]uint32
	objects := 0
	var regsB [16]uint32
	if caller != nil {
		child = parent.StartChild(PhaseNames[PhaseRatRebuild])
		var err error
		frames, err = e.walk(vm, a, caller, callerBlk, callerBase)
		if err != nil {
			return err
		}
		child.SetCostUS(CostPhases(b, len(frames)+1, 0)[PhaseRatRebuild])
		child.End()
		child = parent.StartChild(PhaseNames[PhaseTransform])
		// Indirect calls marshal to the boundary convention before
		// trapping, so register state is physical.
		copy(regs0[:], m.Regs[:])
		regsB, objects, err = e.transform(vm, a, frames, regs0)
		if err != nil {
			return err
		}
	} else {
		child = parent.StartChild(PhaseNames[PhaseRatRebuild])
		child.SetCostUS(CostPhases(b, 1, 0)[PhaseRatRebuild])
		child.End()
		child = parent.StartChild(PhaseNames[PhaseTransform])
		copy(regs0[:], m.Regs[:])
	}

	// Move the pending call's outgoing arguments between the two
	// randomized calling conventions.
	pair := vm.MapOf(callee)
	cmapA, cmapB := pair[a], pair[b]
	for i := 0; i < callee.NumArgs; i++ {
		v, err := m.Mem.ReadWord(callerBase + uint32(cmapA.ArgOff[i]))
		if err != nil {
			return err
		}
		if err := m.Mem.WriteWord(callerBase+uint32(cmapB.ArgOff[i]), v); err != nil {
			return err
		}
		objects++
	}

	// Install registers and switch the return-address convention.
	copy(m.Regs[:], regsB[:])
	m.ISA = b
	m.Flags = machine.Flags{}
	if b == isa.X86 {
		// Target pushes the return address.
		m.SetSP(callerBase - 4)
		if err := m.Mem.WriteWord(callerBase-4, srcRetB); err != nil {
			return err
		}
	} else {
		m.SetSP(callerBase)
		m.Regs[isa.LR] = srcRetB
	}
	child.SetCostUS(CostPhases(b, 0, objects)[PhaseTransform])
	child.End()

	child = parent.StartChild(PhaseNames[PhaseRetranslate])
	cacheAddr, err := vm.EnsureTranslated(b, callee.Entry[b])
	if err != nil {
		return err
	}
	child.SetCostUS(CostPhases(b, 0, 0)[PhaseRetranslate])
	child.End()

	child = parent.StartChild(PhaseNames[PhaseResume])
	// Callee entries expect the boundary (physical) convention; the
	// translated prologue re-relocates.
	m.PC = cacheAddr
	e.account(b, len(frames)+1, objects)
	child.SetCostUS(CostPhases(b, 0, 0)[PhaseResume])
	child.End()
	return nil
}

// sourceRegs builds the effective physical register file of the innermost
// frame: the actual registers at a return boundary, or a software
// de-relocation of the innermost map for indirect-jump events.
func (e *Engine) sourceRegs(vm *dbt.VM, a isa.Kind, inner frame, boundary bool) ([16]uint32, error) {
	m := vm.P.M
	var regs [16]uint32
	if boundary {
		copy(regs[:], m.Regs[:])
		return regs, nil
	}
	mapA := vm.MapOf(inner.fn)[a]
	for i := 0; i < 16; i++ {
		l := mapA.LocOfReg(isa.Reg(i))
		if l.Kind == psr.LocReg {
			regs[i] = m.Regs[l.Reg]
			continue
		}
		v, err := m.Mem.ReadWord(m.SP() + uint32(l.Off))
		if err != nil {
			return regs, err
		}
		regs[i] = v
	}
	return regs, nil
}

// transform checks migration safety, moves every frame's relocatable
// objects between the two ISAs' relocation maps, rewrites return
// addresses, rebuilds the target-ISA callee-save chain, and returns the
// target register file.
func (e *Engine) transform(vm *dbt.VM, a isa.Kind, frames []frame, regs0 [16]uint32) ([16]uint32, int, error) {
	b := a.Other()
	m := vm.P.M
	var regsB [16]uint32

	for _, fr := range frames {
		regResident := 0
		for _, h := range fr.block.LiveIn {
			if h.InReg(a) {
				regResident++
			}
		}
		if regResident > 0 && !e.Policy.OnDemand {
			return regsB, 0, fmt.Errorf("%w: register-resident state without on-demand transform", ErrUnsafe)
		}
		if regResident > e.Policy.Capacity {
			return regsB, 0, fmt.Errorf("%w: %d register-resident live-ins exceed capacity %d",
				ErrUnsafe, regResident, e.Policy.Capacity)
		}
	}

	// Per-depth source register files via the save-chain unwind.
	regsAt := make([][16]uint32, len(frames)+1)
	regsAt[0] = regs0
	for i, fr := range frames {
		regsAt[i+1] = regsAt[i]
		mapA := vm.MapOf(fr.fn)[a]
		for w, r := range fr.fn.SavedRegs[a] {
			off := int32(fr.fn.SaveOff + 4*uint32(w))
			v, err := m.Mem.ReadWord(fr.base + uint32(mapA.OffTo[off]))
			if err != nil {
				return regsB, 0, err
			}
			regsAt[i+1][r] = v
		}
	}

	// Plan all memory moves before mutating anything.
	type move struct {
		addr uint32
		val  uint32
	}
	var plan []move
	objects := 0
	for _, fr := range frames {
		pair := vm.MapOf(fr.fn)
		mapA, mapB := pair[a], pair[b]
		for off, toA := range mapA.OffTo {
			v, err := m.Mem.ReadWord(fr.base + uint32(toA))
			if err != nil {
				return regsB, 0, err
			}
			if off == fr.retOff {
				v = fr.retB
			}
			plan = append(plan, move{fr.base + uint32(mapB.OffTo[off]), v})
			objects++
		}
		for i := 0; i < fr.fn.NumArgs; i++ {
			src := fr.base + fr.fn.FrameSize + mapA.RandSpace + uint32(mapA.ArgOff[i])
			v, err := m.Mem.ReadWord(src)
			if err != nil {
				return regsB, 0, err
			}
			plan = append(plan, move{fr.base + fr.fn.FrameSize + mapB.RandSpace + uint32(mapB.ArgOff[i]), v})
			objects++
		}
	}

	// Target register file, live-value overrides, and target save chain,
	// walking outermost -> innermost.
	var saveWrites, liveWrites []move
	for i := len(frames) - 1; i >= 0; i-- {
		fr := frames[i]
		pair := vm.MapOf(fr.fn)
		mapA, mapB := pair[a], pair[b]
		for _, h := range fr.block.LiveIn {
			var val uint32
			if h.InReg(a) {
				val = regsAt[i][h.Reg[a]]
			} else {
				v, err := m.Mem.ReadWord(fr.base + uint32(mapA.OffTo[h.FrameOff]))
				if err != nil {
					return regsB, 0, err
				}
				val = v
			}
			if h.InReg(b) {
				regsB[h.Reg[b]] = val
			} else {
				liveWrites = append(liveWrites, move{fr.base + uint32(mapB.OffTo[h.FrameOff]), val})
			}
		}
		if i > 0 {
			callee := frames[i-1]
			calleeMapB := vm.MapOf(callee.fn)[b]
			for w, r := range callee.fn.SavedRegs[b] {
				off := int32(callee.fn.SaveOff + 4*uint32(w))
				saveWrites = append(saveWrites, move{callee.base + uint32(calleeMapB.OffTo[off]), regsB[r]})
			}
		}
	}

	for _, mv := range plan {
		if err := m.Mem.WriteWord(mv.addr, mv.val); err != nil {
			return regsB, 0, err
		}
	}
	for _, mv := range saveWrites {
		if err := m.Mem.WriteWord(mv.addr, mv.val); err != nil {
			return regsB, 0, err
		}
	}
	for _, mv := range liveWrites {
		if err := m.Mem.WriteWord(mv.addr, mv.val); err != nil {
			return regsB, 0, err
		}
	}
	e.Stats.FramesMoved += uint64(len(frames))
	e.Stats.ObjectsMoved += uint64(objects)
	return regsB, objects, nil
}

// walk discovers the live frames, innermost first, following relocated
// return addresses and rewriting them through the call-site table.
func (e *Engine) walk(vm *dbt.VM, a isa.Kind, fn *fatbin.FuncMeta, blk *fatbin.BlockMeta, sp uint32) ([]frame, error) {
	m := vm.P.M
	b := a.Other()
	var frames []frame
	base := sp
	cur := fn
	curBlk := blk
	for len(frames) < e.Policy.MaxFrames {
		mapA := vm.MapOf(cur)[a]
		retOff := int32(cur.RetAddrOff())
		retA, err := m.Mem.ReadWord(base + uint32(mapA.OffTo[retOff]))
		if err != nil {
			return nil, err
		}
		fr := frame{fn: cur, base: base, block: curBlk, retA: retA, retOff: retOff}
		if retA == proc.ExitAddr {
			fr.retB = proc.ExitAddr
			frames = append(frames, fr)
			return frames, nil
		}
		caller := vm.Bin.FuncAt(a, retA)
		if caller == nil {
			return nil, fmt.Errorf("%w: return address %#x not in text", ErrUnsafe, retA)
		}
		cs, ok := caller.CallSiteByRet(a, retA)
		if !ok {
			return nil, fmt.Errorf("%w: return address %#x is not a call site", ErrUnsafe, retA)
		}
		fr.retB = cs.RetAddr[b]
		frames = append(frames, fr)
		base = base + cur.FrameSize + mapA.RandSpace
		_, callerBlk := vm.Bin.BlockAt(a, retA)
		if callerBlk == nil {
			return nil, fmt.Errorf("%w: call site %#x has no block", ErrUnsafe, retA)
		}
		cur = caller
		curBlk = callerBlk
	}
	return nil, fmt.Errorf("%w: stack walk exceeded %d frames", ErrUnsafe, e.Policy.MaxFrames)
}

func (e *Engine) account(target isa.Kind, frames, objects int) {
	c := CostMicros(target, frames, objects)
	e.Stats.LastCostMicros = c
	e.Stats.TotalCostMicros += c
	if e.histCost[target] != nil {
		e.histCost[target].Observe(c)
	}
	if e.histPhase[0] != nil {
		phases := CostPhases(target, frames, objects)
		for i, v := range phases {
			e.histPhase[i].Observe(v)
		}
	}
}

func retRegOf(k isa.Kind) isa.Reg {
	if k == isa.X86 {
		return isa.EAX
	}
	return isa.R0
}

// Migration cost model (Figure 12): a fixed translation-infrastructure
// cost plus per-frame and per-object transformation work. Migrating toward
// ARM costs more per object (more registers to reconstruct, legalized
// addressing on the target), so x86->ARM is the slower direction — the
// paper reports 0.909 ms for ARM->x86 and 1.287 ms for x86->ARM.
const (
	baseCostMicrosX86  = 620.0
	baseCostMicrosARM  = 870.0
	perFrameMicrosX86  = 14.0
	perFrameMicrosARM  = 22.0
	perObjectMicrosX86 = 0.9
	perObjectMicrosARM = 1.3
)

// Migration phases, in execution order. These name both the child spans
// under a migration's parent span and the `migrate.phase.<name>`
// histogram series the cost model is decomposed into.
const (
	PhaseSafepointWait = iota // resolving the resume point to an equivalence point
	PhaseRatRebuild           // stack walk + cross-ISA return-address rewrite
	PhaseTransform            // register/stack state transform between relocation maps
	PhaseRetranslate          // ensuring the target-ISA continuation is translated
	PhaseResume               // installing registers/PC and re-relocating
	NumPhases
)

// PhaseNames maps phase indices to their span/series names.
var PhaseNames = [NumPhases]string{
	"safepoint-wait", "rat-rebuild", "transform", "retranslate", "resume",
}

// The fixed base cost splits across the infrastructure phases: most of it
// is translating the target-ISA continuation, the rest is split between
// the return-address-table/stack-walk machinery and the resume/relocation
// bookkeeping. Safe-point resolution is lookup-table work and carries no
// modeled cost of its own.
const (
	baseShareRatRebuild = 0.20
	baseShareRetrans    = 0.55
	baseShareResume     = 0.25
)

// CostPhases decomposes the migration cost model by phase. The phases sum
// to CostMicros exactly: the base cost splits over rat-rebuild /
// retranslate / resume by the fixed shares above, per-frame work bills to
// rat-rebuild, and per-object work bills to transform.
func CostPhases(target isa.Kind, frames, objects int) [NumPhases]float64 {
	base, perFrame, perObject := baseCostMicrosARM, perFrameMicrosARM, perObjectMicrosARM
	if target == isa.X86 {
		base, perFrame, perObject = baseCostMicrosX86, perFrameMicrosX86, perObjectMicrosX86
	}
	var p [NumPhases]float64
	p[PhaseSafepointWait] = 0
	p[PhaseRatRebuild] = baseShareRatRebuild*base + perFrame*float64(frames)
	p[PhaseTransform] = perObject * float64(objects)
	p[PhaseRetranslate] = baseShareRetrans * base
	p[PhaseResume] = baseShareResume * base
	return p
}

// CostMicros models the one-way migration cost toward the target ISA. It
// is defined as the sum of its phase decomposition so the
// `migrate.phase.*` series always account for the full `migrate.cost_us`
// total.
func CostMicros(target isa.Kind, frames, objects int) float64 {
	p := CostPhases(target, frames, objects)
	var sum float64
	for _, v := range p {
		sum += v
	}
	return sum
}

// SafetyReport classifies every block of a binary by migration safety in
// each direction — the Figure 6 analysis.
type SafetyReport struct {
	Total int
	Safe  [2]int // indexed by *source* ISA: Safe[X86] counts x86->ARM
}

// Fraction returns the migration-safe fraction for direction src->other.
func (r SafetyReport) Fraction(src isa.Kind) float64 {
	if r.Total == 0 {
		return 0
	}
	return float64(r.Safe[src]) / float64(r.Total)
}

// AnalyzeSafety computes the static migration-safety of every basic block
// in bin under policy p: a block is safe in direction src->dst when its
// live-in register-resident state is within the on-demand transformer's
// reach (memory-resident state is always transformable thanks to the
// common frame layout).
func AnalyzeSafety(bin *fatbin.Binary, p Policy) SafetyReport {
	var rep SafetyReport
	for _, f := range bin.Funcs {
		for i := range f.Blocks {
			blk := &f.Blocks[i]
			rep.Total++
			for _, src := range isa.Kinds {
				regResident := 0
				for _, h := range blk.LiveIn {
					if h.InReg(src) {
						regResident++
					}
				}
				switch {
				case regResident == 0:
					rep.Safe[src]++
				case p.OnDemand && regResident <= p.Capacity:
					rep.Safe[src]++
				}
			}
		}
	}
	return rep
}

// Ensure Engine satisfies the VM's interface.
var _ dbt.Migrator = (*Engine)(nil)
