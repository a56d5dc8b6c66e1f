package profiler_test

import (
	"regexp"
	"sort"
	"strings"
	"testing"

	"hipstr/internal/compiler"
	"hipstr/internal/dbt"
	"hipstr/internal/fatbin"
	"hipstr/internal/isa"
	"hipstr/internal/perf"
	"hipstr/internal/proc"
	"hipstr/internal/profiler"
	"hipstr/internal/telemetry"
	"hipstr/internal/testprogs"
)

const maxSteps = 20_000_000

func compile(t *testing.T, name string) *fatbin.Binary {
	t.Helper()
	tc, ok := testprogs.All()[name]
	if !ok {
		t.Fatalf("unknown test program %q", name)
	}
	bin, err := compiler.Compile(tc.Mod)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return bin
}

// TestNativeAttribution runs a native process with the timing model bound
// and checks the acceptance bar: at least 90% of simulated cycles land on
// symbolized guest functions, and per-function costs add up to the total.
func TestNativeAttribution(t *testing.T) {
	bin := compile(t, "nested")
	for _, k := range isa.Kinds {
		p, err := proc.New(bin, k)
		if err != nil {
			t.Fatal(err)
		}
		model := perf.NewModel(perf.CoreFor(k))
		model.Attach(p.M)
		prof := profiler.New(bin, 8)
		prof.BindModel(model)
		prof.Attach(p.M)
		if err := p.RunToExit(maxSteps); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		rep := prof.Report()
		if rep.Samples == 0 {
			t.Fatalf("%s: no samples", k)
		}
		if rep.AttributedRatio < 0.9 {
			t.Errorf("%s: attributed ratio %.3f < 0.9", k, rep.AttributedRatio)
		}
		if len(rep.Funcs) == 0 || rep.Funcs[0].Func == "(unknown)" {
			t.Errorf("%s: hottest function unsymbolized: %+v", k, rep.Funcs)
		}
		var sum float64
		for _, f := range rep.Funcs {
			sum += f.Cycles
		}
		if diff := sum - rep.TotalCycles; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: func cycles %.2f != total %.2f", k, sum, rep.TotalCycles)
		}
		if rep.TotalCycles < float64(rep.Instructions)/4 {
			t.Errorf("%s: %.0f cycles for %d instructions looks unbound from the model",
				k, rep.TotalCycles, rep.Instructions)
		}
	}
}

// TestVMResolverAttribution runs the PSR VM with the profiler resolving
// code cache PCs back to guest source addresses: attribution must clear
// 90% even though every sampled PC lives in a translation unit.
func TestVMResolverAttribution(t *testing.T) {
	bin := compile(t, "nested")
	cfg := dbt.DefaultConfig()
	cfg.MigrateProb = 0
	vm, err := dbt.New(bin, isa.X86, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(bin, 8)
	prof.SetResolver(vm.ResolvePC)
	prof.Attach(vm.P.M)
	if _, err := vm.Run(maxSteps); err != nil {
		t.Fatal(err)
	}
	if !vm.P.Exited {
		t.Fatal("program did not exit under the PSR VM")
	}
	rep := prof.Report()
	if rep.Samples == 0 {
		t.Fatal("no samples")
	}
	if rep.AttributedRatio < 0.9 {
		t.Errorf("attributed ratio %.3f < 0.9 (cache PCs not resolving)", rep.AttributedRatio)
	}
	if len(rep.Funcs) == 0 || rep.Funcs[0].Func == "(unknown)" {
		t.Errorf("hottest function unsymbolized: %+v", rep.Funcs)
	}
}

// TestInstructionCountFallback pins the no-model contract: every sampled
// instruction costs exactly one cycle, so totals equal sampled counts.
func TestInstructionCountFallback(t *testing.T) {
	bin := compile(t, "sumloop")
	p, err := proc.New(bin, isa.ARM)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(bin, 16)
	prof.Attach(p.M)
	if err := p.RunToExit(maxSteps); err != nil {
		t.Fatal(err)
	}
	rep := prof.Report()
	if rep.Samples == 0 {
		t.Fatal("no samples")
	}
	if rep.TotalCycles != float64(rep.Instructions) {
		t.Errorf("total %.0f != sampled instructions %d", rep.TotalCycles, rep.Instructions)
	}
	if rep.Instructions != rep.Samples*prof.Interval() {
		t.Errorf("instructions %d != samples %d * interval %d",
			rep.Instructions, rep.Samples, prof.Interval())
	}
}

var foldedLine = regexp.MustCompile(
	`^(interpret;[^;]+;(x86|arm);block(\d+|\?)|translate;[^;]+;(x86|arm)|migrate;\(migration\);(x86|arm)) \d+$`)

// TestFoldedOutput checks the folded stacks parse in the flamegraph
// "frames weight" format tracestat emits, sorted and with positive weights.
func TestFoldedOutput(t *testing.T) {
	bin := compile(t, "fib")
	p, err := proc.New(bin, isa.X86)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(bin, 4)
	prof.Attach(p.M)
	if err := p.RunToExit(maxSteps); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := prof.Report().WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no folded output")
	}
	for _, l := range lines {
		if !foldedLine.MatchString(l) {
			t.Errorf("malformed folded line %q", l)
		}
	}
	if !sort.StringsAreSorted(lines) {
		t.Error("folded stacks not sorted")
	}
}

// TestPhaseAccounting feeds trace records straight into the profiler's
// sink and checks translate/migrate costs surface as phases with their
// microsecond weights, keyed to the function owning the translated block.
func TestPhaseAccounting(t *testing.T) {
	bin := compile(t, "fib")
	prof := profiler.New(bin, 64)
	entry := bin.Funcs[0].Entry[isa.X86]
	prof.Emit(telemetry.Record{Name: telemetry.EvTranslate, ISA: "x86", Addr: entry, CostUS: 12.5})
	prof.Emit(telemetry.Record{Name: telemetry.EvTranslate, ISA: "x86", Addr: entry, CostUS: 2.5})
	prof.Emit(telemetry.Record{Name: telemetry.EvMigrateEnd, ISA: "arm", CostUS: 40})
	prof.Emit(telemetry.Record{Name: telemetry.EvMigrateEnd, ISA: "arm", CostUS: 0}) // refused: no cost
	// The span timing the same translation shares the stream; it must not
	// count twice.
	prof.Emit(telemetry.Record{Kind: telemetry.KindSpan, Name: "translate", Track: "dbt", ISA: "x86", CostUS: 12.5})
	rep := prof.Report()
	if len(rep.Phases) != 2 {
		t.Fatalf("got %d phases, want 2: %+v", len(rep.Phases), rep.Phases)
	}
	mig, tr := rep.Phases[0], rep.Phases[1]
	if mig.Phase != "migrate" || mig.ISA != "arm" || mig.Count != 1 || mig.CostUS != 40 {
		t.Errorf("migrate phase wrong: %+v", mig)
	}
	if tr.Phase != "translate" || tr.Func != bin.Funcs[0].Name || tr.Count != 2 || tr.CostUS != 15 {
		t.Errorf("translate phase wrong: %+v", tr)
	}
	var b strings.Builder
	if err := rep.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	want := "migrate;(migration);arm 40\ntranslate;" + bin.Funcs[0].Name + ";x86 15\n"
	if b.String() != want {
		t.Errorf("folded phases:\n%q\nwant:\n%q", b.String(), want)
	}
}

// TestTelemetryBinding checks the profiler's collector publishes sample
// meters and the attribution ratio through a registry snapshot.
func TestTelemetryBinding(t *testing.T) {
	bin := compile(t, "sumloop")
	p, err := proc.New(bin, isa.X86)
	if err != nil {
		t.Fatal(err)
	}
	prof := profiler.New(bin, 16)
	prof.Attach(p.M)
	tel := telemetry.New()
	prof.BindTelemetry(tel)
	if err := p.RunToExit(maxSteps); err != nil {
		t.Fatal(err)
	}
	snap := tel.Snapshot()
	if snap.Counters["profiler.samples"] == 0 {
		t.Error("profiler.samples not published")
	}
	if snap.Counters["profiler.instructions"] == 0 {
		t.Error("profiler.instructions not published")
	}
	if r := snap.Gauges["profiler.attributed_ratio"]; r < 0.9 || r > 1 {
		t.Errorf("profiler.attributed_ratio = %v", r)
	}
}
