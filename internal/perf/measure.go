package perf

import (
	"fmt"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/machine"
	"hipstr/internal/proc"
	"hipstr/internal/telemetry"
)

// Measurement is a work-normalized timing result: cycles spent between two
// progress boundaries of the workload (the SysWrite markers every
// benchmark's outer loop emits). Comparing measurements of the same
// boundaries under different execution modes yields relative performance
// independent of how many machine instructions each mode needed.
type Measurement struct {
	Core    string
	Cycles  float64
	Instrs  uint64
	CPI     float64
	Seconds float64
	Counts  Counts
	// CodeCacheMisses is the window's indirect-transfer code-cache misses
	// (security events) under a VM; 0 for native runs.
	CodeCacheMisses uint64
}

const measureChunk = 500_000
const measureCap = 400_000_000

// MeasureNative runs bin natively on ISA k, warming through warmWrites
// progress markers and measuring through the next measureWrites.
func MeasureNative(bin *fatbin.Binary, k isa.Kind, warmWrites, measureWrites int) (Measurement, error) {
	p, err := proc.New(bin, k)
	if err != nil {
		return Measurement{}, err
	}
	model := NewModel(CoreFor(k))
	model.Attach(p.M)
	return measure(p, nil, model, warmWrites, measureWrites)
}

// MeasureVM runs bin under a PSR virtual machine on ISA k with the given
// configuration and measures the same work window. The measurement's
// CodeCacheMisses counts the window's steady-state security events only:
// warmup misses (compulsory translation) are excluded.
func MeasureVM(bin *fatbin.Binary, k isa.Kind, cfg dbt.Config, warmWrites, measureWrites int) (Measurement, *dbt.VM, error) {
	vm, err := dbt.New(bin, k, cfg)
	if err != nil {
		return Measurement{}, nil, err
	}
	model := NewModel(CoreFor(k))
	model.RATEnabled = true
	model.BindTelemetry(vm.Telemetry())
	model.Attach(vm.P.M)
	m, err := measure(vm.P, vm, model, warmWrites, measureWrites)
	return m, vm, err
}

// boundary is the measured state at one progress-write boundary.
type boundary struct {
	snap   Snapshot
	counts Counts
	misses uint64 // the VM's code-cache misses so far (0 for native runs)
	ok     bool
}

// measure snapshots the model exactly at the progress-write boundaries by
// interposing on the syscall handler, so overshooting a boundary inside a
// run chunk cannot blur the window. vm is nil for native runs.
func measure(p *proc.Process, vm *dbt.VM, model *Model, warmWrites, measureWrites int) (Measurement, error) {
	target := warmWrites + measureWrites
	var start, end boundary
	var phaseStart float64
	orig := p.M.Syscall
	p.M.Syscall = func(m *machine.Machine, vec int32) error {
		before := len(p.Trace)
		if err := orig(m, vec); err != nil {
			return err
		}
		if n := len(p.Trace); n != before {
			b := boundary{snap: model.Snap(), counts: model.Counts, ok: true}
			if vm != nil {
				b.misses = vm.Stats.CodeCacheMisses
			}
			if n == warmWrites {
				start = b
			}
			if n == target {
				end = b
			}
			// Per-phase cycle accounting: each progress write closes one
			// workload phase.
			if model.tel != nil {
				cyc := model.Cycles - phaseStart
				model.histPhase.Observe(cyc)
				model.tel.Emit(telemetry.Record{
					Name: telemetry.EvPhase, ISA: model.Core.Name, DurCycles: cyc,
					Detail: fmt.Sprintf("write %d", n),
				})
			}
			phaseStart = model.Cycles
		}
		return nil
	}
	var total uint64
	for len(p.Trace) < target {
		if p.Exited {
			return Measurement{}, fmt.Errorf("perf: program exited after %d writes (want %d)", len(p.Trace), target)
		}
		ran, err := p.Run(measureChunk)
		if err != nil {
			return Measurement{}, err
		}
		total += ran
		if total > measureCap {
			return Measurement{}, fmt.Errorf("perf: exceeded %d instructions waiting for %d writes", measureCap, target)
		}
	}
	if !start.ok || !end.ok {
		return Measurement{}, fmt.Errorf("perf: missing boundary snapshots (%v/%v)", start.ok, end.ok)
	}
	cyc := end.snap.Cycles - start.snap.Cycles
	ins := end.snap.Instrs - start.snap.Instrs
	m := Measurement{
		Core:            model.Core.Name,
		Cycles:          cyc,
		Instrs:          ins,
		Seconds:         cyc / (model.Core.FreqGHz * 1e9),
		Counts:          diffCounts(end.counts, start.counts),
		CodeCacheMisses: end.misses - start.misses,
	}
	if ins > 0 {
		m.CPI = cyc / float64(ins)
	}
	return m, nil
}

func diffCounts(a, b Counts) Counts {
	return Counts{
		Instrs:   a.Instrs - b.Instrs,
		Loads:    a.Loads - b.Loads,
		Stores:   a.Stores - b.Stores,
		Branches: a.Branches - b.Branches,
		Calls:    a.Calls - b.Calls,
		Returns:  a.Returns - b.Returns,
		MulDiv:   a.MulDiv - b.MulDiv,
	}
}

// Relative returns the performance of measured relative to baseline (1.0 =
// parity, lower = slower), comparing cycles for the same work window.
func Relative(baseline, measured Measurement) float64 {
	if measured.Cycles == 0 {
		return 0
	}
	return baseline.Cycles / measured.Cycles
}
