// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic benchmark suite. Each driver is
// registered as an Experiment (registry.go) and executed through the
// engine (engine.go): its independent per-workload / per-sweep-point cells
// fan out on a bounded worker pool, its structured rows are published into
// the telemetry registry and written as JSON result artifacts, and its
// printed tables are byte-identical regardless of scheduling.
// EXPERIMENTS.md records paper-vs-measured for each.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/gadget"
	"hipstr/internal/isa"
	"hipstr/internal/prog"
	"hipstr/internal/telemetry"
	"hipstr/internal/workload"
)

// Suite configures a run of the experiment drivers.
type Suite struct {
	// Profiles is the benchmark list (defaults to the paper's eight).
	Profiles []workload.Profile
	// Quick trims sweeps and samples gadget populations so the whole
	// suite finishes in test-friendly time.
	Quick bool
	// Out receives human-readable tables (nil discards).
	Out io.Writer
	// Parallel bounds the worker pool each driver fans its independent
	// cells out on: 1 runs fully serial, 0 (the default) uses
	// runtime.GOMAXPROCS. Printed output is byte-identical either way.
	Parallel int
	// Telemetry, when set, receives each driver's structured series as
	// gauges plus the engine's run counters and timings.
	Telemetry *telemetry.Telemetry

	mu          sync.Mutex
	bins        map[string]*binEntry
	entropyBits float64 // measured PSR entropy (set by Table2, read by Fig7)

	// expSpan is the currently running experiment's parent span; cell
	// spans in forEach attach under it. Set by the engine before an
	// experiment starts (experiments run sequentially), read by cell
	// workers, so no lock is needed.
	expSpan telemetry.Span
}

// NewSuite returns a Suite over the full benchmark set.
func NewSuite(out io.Writer) *Suite {
	return &Suite{Profiles: workload.Profiles(), Out: out}
}

// QuickSuite returns a reduced suite for tests: the three smallest
// benchmarks and sampled gadget populations.
func QuickSuite(out io.Writer) *Suite {
	var ps []workload.Profile
	for _, name := range []string{"libquantum", "lbm", "mcf"} {
		p, _ := workload.ProfileByName(name)
		ps = append(ps, p)
	}
	return &Suite{Profiles: ps, Quick: true, Out: out}
}

func (s *Suite) printf(format string, args ...interface{}) {
	if s.Out != nil {
		fmt.Fprintf(s.Out, format, args...)
	}
}

// binEntry is one singleflight slot of the compile cache: concurrent cells
// requesting the same benchmark share one compilation, and the security
// drivers share one mined gadget population.
type binEntry struct {
	once sync.Once
	bin  *fatbin.Binary
	mod  *prog.Module
	err  error

	gadgetOnce sync.Once
	gadgets    gadgetSummary
}

// compiled returns p's cache slot with its compilation done. It is safe
// for concurrent use: the per-benchmark sync.Once guarantees a single
// compile no matter how many cells race on the same profile.
func (s *Suite) compiled(p workload.Profile) *binEntry {
	s.mu.Lock()
	if s.bins == nil {
		s.bins = make(map[string]*binEntry)
	}
	e, ok := s.bins[p.Name]
	if !ok {
		e = &binEntry{}
		s.bins[p.Name] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		mod := workload.Generate(p)
		b, err := compiler.Compile(mod)
		if err != nil {
			e.err = fmt.Errorf("experiments: compile %s: %w", p.Name, err)
			return
		}
		e.bin, e.mod = b, mod
	})
	return e
}

// bin compiles (and caches) a benchmark.
func (s *Suite) bin(p workload.Profile) (*fatbin.Binary, error) {
	e := s.compiled(p)
	return e.bin, e.err
}

// gadgetSummary is what the security drivers read of one benchmark's
// x86 gadget population (sampled in Quick mode): its size, and the viable
// gadgets with their native effects. The rest of the population is
// dropped once counted, so a suite never holds whole populations.
type gadgetSummary struct {
	total   int
	viable  []gadget.Gadget
	effects []gadget.Effect // effects[i] is viable[i]'s native effect
}

// gadgets mines and natively evaluates p's gadget population once per
// suite (singleflight, like the compile) and returns it with p's binary.
// Callers must treat the summary as read-only.
func (s *Suite) gadgets(p workload.Profile) (*fatbin.Binary, gadgetSummary, error) {
	e := s.compiled(p)
	if e.err != nil {
		return nil, gadgetSummary{}, e.err
	}
	e.gadgetOnce.Do(func() {
		gs := s.sampleGadgets(gadget.Mine(e.bin, isa.X86, 0))
		an := gadget.NewAnalyzer(e.bin)
		e.gadgets.total = len(gs)
		for i := range gs {
			if eff := an.NativeEffect(&gs[i]); eff.Viable() {
				e.gadgets.viable = append(e.gadgets.viable, gs[i])
				e.gadgets.effects = append(e.gadgets.effects, eff)
			}
		}
	})
	return e.bin, e.gadgets, nil
}

// unobfuscated counts the viable gadgets whose PSR-translated effect
// matches their native one: the attack surface PSR leaves intact.
func unobfuscated(bin *fatbin.Binary, seed int64, g gadgetSummary) (int, error) {
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	cfg.Seed = seed
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		return 0, err
	}
	n := 0
	for i := range g.viable {
		if g.effects[i].SameOutcome(gadget.TranslatedEffect(vm, &g.viable[i])) {
			n++
		}
	}
	return n, nil
}

func (s *Suite) module(name string) *prog.Module {
	s.mu.Lock()
	e := s.bins[name]
	s.mu.Unlock()
	if e == nil {
		return nil
	}
	return e.mod
}

// setEntropyBits records the Table 2 measurement for Fig7.
func (s *Suite) setEntropyBits(bits float64) {
	s.mu.Lock()
	s.entropyBits = bits
	s.mu.Unlock()
}

// PSREntropyBits returns the per-gadget PSR entropy measured by Table2, or
// the paper's ~30-bit ballpark before Table2 has run.
func (s *Suite) PSREntropyBits() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entropyBits == 0 {
		return 30
	}
	return s.entropyBits
}

// sampleGadgets bounds a gadget population in Quick mode.
func (s *Suite) sampleGadgets(gs []gadget.Gadget) []gadget.Gadget {
	const maxSample = 400
	if !s.Quick || len(gs) <= maxSample {
		return gs
	}
	step := len(gs) / maxSample
	out := make([]gadget.Gadget, 0, maxSample)
	for i := 0; i < len(gs); i += step {
		out = append(out, gs[i])
	}
	return out
}

// header prints a section banner.
func (s *Suite) header(title string) {
	s.printf("\n== %s ==\n", title)
}
