// Package core assembles the full HIPStR defense (paper §3.5): a pair of
// PSR virtual machines, one per ISA of the heterogeneous CMP, coupled with
// the PSR-aware cross-ISA migration engine and the two migration policies —
// performance-driven phase migration and probabilistic security migration
// on code-cache misses.
package core

import (
	"fmt"

	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/migrate"
	"hipstr/internal/telemetry"
)

// Mode selects which layers of the defense are active.
type Mode int

const (
	// ModePSR runs Program State Relocation on a single ISA (no
	// migration) — susceptible to JIT-ROP by itself.
	ModePSR Mode = iota
	// ModeHIPStR runs the combined defense: PSR on both ISAs plus
	// probabilistic heterogeneous-ISA migration on security events.
	ModeHIPStR
)

func (m Mode) String() string {
	if m == ModeHIPStR {
		return "HIPStR"
	}
	return "PSR"
}

// Config configures a protected process.
type Config struct {
	Mode      Mode
	StartISA  isa.Kind
	DBT       dbt.Config
	Migration migrate.Policy
}

// DefaultConfig returns the paper's main HIPStR configuration.
func DefaultConfig() Config {
	return Config{
		Mode:      ModeHIPStR,
		StartISA:  isa.X86,
		DBT:       dbt.DefaultConfig(),
		Migration: migrate.DefaultPolicy(),
	}
}

// System is a process protected by HIPStR (or plain PSR).
type System struct {
	Bin    *fatbin.Binary
	VM     *dbt.VM
	Engine *migrate.Engine
	Cfg    Config

	tel      *telemetry.Telemetry
	respawns int
}

// New boots bin under the configured defense. All subsystems — the PSR
// virtual machines, the migration engine, and (when attached) the timing
// model — report into one shared telemetry instance, taken from
// cfg.DBT.Telemetry or created fresh.
func New(bin *fatbin.Binary, cfg Config) (*System, error) {
	if cfg.Mode == ModePSR {
		cfg.DBT.MigrateProb = 0
	}
	if cfg.DBT.Telemetry == nil {
		cfg.DBT.Telemetry = telemetry.NewWithTraceCap(cfg.DBT.TraceCap)
	}
	tel := cfg.DBT.Telemetry
	vm, err := dbt.New(bin, cfg.StartISA, cfg.DBT)
	if err != nil {
		return nil, fmt.Errorf("core: boot: %w", err)
	}
	s := &System{Bin: bin, VM: vm, Cfg: cfg, tel: tel}
	if cfg.Mode == ModeHIPStR {
		s.Engine = &migrate.Engine{Policy: cfg.Migration}
		s.Engine.BindTelemetry(tel)
		vm.Migrator = s.Engine
	}
	return s, nil
}

// Telemetry returns the system-wide metrics registry and tracer.
func (s *System) Telemetry() *telemetry.Telemetry { return s.tel }

// Run executes up to maxSteps instructions.
func (s *System) Run(maxSteps uint64) (uint64, error) { return s.VM.Run(maxSteps) }

// Exited reports process termination.
func (s *System) Exited() bool { return s.VM.P.Exited }

// ExitCode returns the exit status.
func (s *System) ExitCode() uint32 { return s.VM.P.ExitCode }

// Active returns the ISA currently executing.
func (s *System) Active() isa.Kind { return s.VM.Active() }

// RequestPhaseMigration schedules a performance-policy migration at the
// next migration-safe boundary (paper §5.2: "whenever an application phase
// change ... demands migration to another core").
func (s *System) RequestPhaseMigration() {
	if s.Engine != nil {
		s.VM.PendingMigration = true
		s.tel.Emit(telemetry.Record{
			Name: telemetry.EvPolicy, ISA: s.Active().String(),
			Detail: "phase-migration-request",
		})
	}
}

// Respawn models the crash/reboot scenario of §5.3: the worker re-spawns
// with freshly randomized relocation maps and empty code caches on both
// ISAs. Memory mutations from the previous life persist (matching a
// re-spawned worker thread sharing its parent's image is *not* modeled:
// the paper's PSR re-randomizes, which is the property captured here).
func (s *System) Respawn() error {
	s.respawns++
	s.tel.Emit(telemetry.Record{
		Name: telemetry.EvRespawn, ISA: s.Cfg.StartISA.String(),
		Detail: fmt.Sprintf("respawn %d", s.respawns),
	})
	s.tel.Gauge("core.respawns").Set(float64(s.respawns))
	return s.VM.Respawn(s.Cfg.StartISA, s.Cfg.DBT.Seed+int64(s.respawns)*0x9E3779B9)
}

// Respawns reports how many times the process was re-spawned.
func (s *System) Respawns() int { return s.respawns }

// Snapshot freezes the system's VM state into a shareable image. The
// system keeps running; forks materialize new Systems from the image at
// O(dirty pages) instead of booting from scratch. Fleet hosts snapshot one
// booted prototype per binary and admit tenants via Fork.
type Snapshot struct {
	vm  *dbt.VMSnapshot
	cfg Config
}

// Snapshot captures the system's current state copy-on-write.
func (s *System) Snapshot() *Snapshot {
	return &Snapshot{vm: s.VM.Snapshot(), cfg: s.Cfg}
}

// assemble wraps a forked VM into a full System: fresh migration engine
// (its cumulative stats belong to one guest's lifetime) bound to the
// fork's telemetry, wired as the VM's migrator under the original mode.
func (sn *Snapshot) assemble(vm *dbt.VM) *System {
	cfg := sn.cfg
	cfg.DBT = vm.Cfg
	sys := &System{Bin: vm.Bin, VM: vm, Cfg: cfg, tel: vm.Telemetry()}
	if cfg.Mode == ModeHIPStR {
		sys.Engine = &migrate.Engine{Policy: cfg.Migration}
		sys.Engine.BindTelemetry(sys.tel)
		vm.Migrator = sys.Engine
	}
	return sys
}

// Fork materializes a new System continuing exactly where the snapshot was
// taken: registers, translated code, RAT contents, and relocation maps all
// carry over (memory aliased copy-on-write). fc.Telemetry defaults to a
// private instance per fork.
func (sn *Snapshot) Fork(fc dbt.ForkConfig) (*System, error) {
	vm, err := sn.vm.Fork(fc)
	if err != nil {
		return nil, fmt.Errorf("core: fork: %w", err)
	}
	return sn.assemble(vm), nil
}

// Respawn materializes a fresh guest from the snapshot under a new PSR
// seed — the §5.3 kill+respawn breach response at O(dirty pages): memory
// forks copy-on-write from the snapshot while relocation maps and code
// caches re-randomize from scratch.
func (sn *Snapshot) Respawn(newSeed int64, fc dbt.ForkConfig) (*System, error) {
	vm, err := sn.vm.Respawn(sn.cfg.StartISA, newSeed, fc)
	if err != nil {
		return nil, fmt.Errorf("core: respawn fork: %w", err)
	}
	return sn.assemble(vm), nil
}

// SecurityEvents reports the number of code-cache-miss security events.
func (s *System) SecurityEvents() uint64 { return s.VM.Stats.SecurityEvents }

// Migrations reports how many migrations occurred.
func (s *System) Migrations() uint64 { return s.VM.Stats.Migrations }
