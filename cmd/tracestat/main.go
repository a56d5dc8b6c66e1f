// Command tracestat post-processes a -trace-out JSONL trace stream (from
// hipstr-run or hipstr-bench) into per-phase and per-event-type breakdowns.
//
// Every line is one telemetry.Record. Point events ("kind":"event")
// feed the event tables: phase points (name "phase") partition the
// stream, every point up to and including a phase boundary being
// attributed to that phase (the boundary's Detail, e.g. "write 3");
// points after the last boundary land in "(tail)", and a trace with no
// phase points is one "(run)" phase. A point's cost is its modeled cost
// in microseconds, or for a phase point the guest cycles accumulated in
// the closing phase.
//
// With -folded, tracestat also writes flamegraph-style folded stacks, one
// "phase;event-type;isa weight" line per aggregate, ready for standard
// flamegraph tooling. The weight is the summed event cost (rounded up to 1)
// so costed events (translation latency, migration cost, phase cycles)
// dominate the graph while cost-less events still appear.
//
// Traces recorded with span recording on also carry span records
// ("kind":"span"). tracestat prints a per-span-phase duration table
// (count, wall-clock, guest cycles, modeled cost), and with -chrome
// re-exports the whole trace as Chrome trace-event JSON loadable in
// ui.perfetto.dev.
//
// With -incidents, tracestat instead summarizes a health-engine
// -incident-dir: it reads the incident-*.json flight-recorder bundles and
// prints one row per incident with its rule, state, duration, peak
// measure, and top offender tenants. Traces are read through
// telemetry.ReadJSONL, the loader the trace schema ships with.
//
// Usage:
//
//	tracestat [-folded out.folded] [-chrome out.json] [-top N] trace.jsonl
//	tracestat -incidents <dir>
//
// The trace input may be "-" for stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sort"

	"hipstr/internal/telemetry"
)

// agg accumulates one breakdown cell.
type agg struct {
	count uint64
	cost  float64
}

// key identifies a folded-stack leaf: phase / event type / ISA.
type key struct {
	phase string
	typ   string
	isa   string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracestat: ")
	folded := flag.String("folded", "", "write flamegraph folded stacks to this file")
	chrome := flag.String("chrome", "", "re-export the trace as Chrome trace-event JSON to this file")
	top := flag.Int("top", 0, "limit per-phase rows to the N highest-cost phases (0 = all)")
	incidents := flag.String("incidents", "", "summarize a health-engine incident dir instead of a trace")
	flag.Parse()
	if *incidents != "" {
		if err := summarizeIncidents(*incidents, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-folded out.folded] [-chrome out.json] [-top N] trace.jsonl | tracestat -incidents <dir>")
		os.Exit(2)
	}

	recs, err := readTrace(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}
	var events, spans []telemetry.Record
	for _, r := range recs {
		if r.Kind == telemetry.KindSpan {
			spans = append(spans, r)
		} else {
			events = append(events, r)
		}
	}
	if len(recs) == 0 {
		// An empty trace is a normal artifact of a run that emitted no
		// events (or was cut before any): report it clearly, emit the
		// zero-row tables so pipelines keep working, and exit 0.
		fmt.Fprintln(os.Stderr, "tracestat: no events in trace (empty input); emitting empty tables")
	}

	phases := assignPhases(events)

	byType := map[string]*agg{}
	byPhase := map[string]*agg{}
	cells := map[key]*agg{}
	var phaseOrder []string
	for i, e := range events {
		typ := e.Name
		accumulate(byType, typ, e)
		ph := phases[i]
		if _, seen := byPhase[ph]; !seen {
			phaseOrder = append(phaseOrder, ph)
		}
		accumulate(byPhase, ph, e)
		k := key{phase: ph, typ: typ, isa: e.ISA}
		c := cells[k]
		if c == nil {
			c = &agg{}
			cells[k] = c
		}
		c.count++
		c.cost += cost(e)
	}

	printTypeTable(byType, len(events))
	printPhaseTable(byPhase, phaseOrder, *top)
	if len(spans) > 0 {
		printSpanTable(spans)
	}

	if *folded != "" {
		if err := writeFolded(*folded, cells); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("folded stacks written to %s (%d rows)\n", *folded, len(cells))
	}
	if *chrome != "" {
		if err := writeChrome(*chrome, recs); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chrome trace written to %s (%d spans, %d events; open in ui.perfetto.dev)\n",
			*chrome, len(spans), len(events))
	}
}

func accumulate(m map[string]*agg, k string, e telemetry.Record) {
	a := m[k]
	if a == nil {
		a = &agg{}
		m[k] = a
	}
	a.count++
	a.cost += cost(e)
}

// cost is a point's weight: its modeled microseconds, or a phase point's
// guest cycles.
func cost(e telemetry.Record) float64 { return e.CostUS + e.DurCycles }

// readTrace reads a JSONL trace file ("-" for stdin) with
// telemetry.ReadJSONL. A truncated final record — a trace cut mid-write —
// is dropped with a warning; corruption mid-stream is fatal.
func readTrace(path string) ([]telemetry.Record, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	recs, cut, err := telemetry.ReadJSONL(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if cut > 0 {
		log.Printf("warning: dropping truncated trailing record at %s:%d", path, cut)
	}
	return recs, nil
}

// assignPhases labels each event with the phase that closes at or after it.
// The tracer's ring buffer may have rotated early events out, so boundaries
// are located by position in the retained stream, not by ID.
func assignPhases(events []telemetry.Record) []string {
	labels := make([]string, len(events))
	start := 0
	anyPhase := false
	for i, e := range events {
		if e.Name != telemetry.EvPhase {
			continue
		}
		anyPhase = true
		name := e.Detail
		if name == "" {
			name = fmt.Sprintf("phase %d", i)
		}
		for j := start; j <= i; j++ {
			labels[j] = name
		}
		start = i + 1
	}
	tail := "(tail)"
	if !anyPhase {
		tail = "(run)"
	}
	for j := start; j < len(events); j++ {
		labels[j] = tail
	}
	return labels
}

func printTypeTable(byType map[string]*agg, total int) {
	types := make([]string, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool {
		a, b := byType[types[i]], byType[types[j]]
		if a.cost != b.cost {
			return a.cost > b.cost
		}
		if a.count != b.count {
			return a.count > b.count
		}
		return types[i] < types[j]
	})
	fmt.Printf("%d events\n\n", total)
	fmt.Printf("%-18s %10s %14s %12s\n", "event type", "count", "total cost", "avg cost")
	for _, t := range types {
		a := byType[t]
		fmt.Printf("%-18s %10d %14.1f %12.3f\n", t, a.count, a.cost, a.cost/float64(a.count))
	}
}

func printPhaseTable(byPhase map[string]*agg, order []string, top int) {
	if top > 0 && top < len(order) {
		// Keep stream order but drop the cheapest phases.
		sorted := append([]string(nil), order...)
		sort.Slice(sorted, func(i, j int) bool { return byPhase[sorted[i]].cost > byPhase[sorted[j]].cost })
		keep := map[string]bool{}
		for _, p := range sorted[:top] {
			keep[p] = true
		}
		var trimmed []string
		for _, p := range order {
			if keep[p] {
				trimmed = append(trimmed, p)
			}
		}
		order = trimmed
	}
	fmt.Printf("\n%-18s %10s %14s\n", "phase", "events", "cost")
	for _, p := range order {
		a := byPhase[p]
		fmt.Printf("%-18s %10d %14.1f\n", p, a.count, a.cost)
	}
}

// printSpanTable aggregates span records by track and name (one row per
// span phase — "migrate/rat-rebuild", "dbt/translate", ...) and prints
// counts with totals in all three span domains: wall clock, guest
// cycles, and modeled cost.
func printSpanTable(spans []telemetry.Record) {
	type srow struct {
		count  uint64
		wallNS int64
		cycles float64
		costUS float64
	}
	rows := map[string]*srow{}
	for _, s := range spans {
		name := s.Name
		if s.Track != "" {
			name = s.Track + "/" + s.Name
		}
		r := rows[name]
		if r == nil {
			r = &srow{}
			rows[name] = r
		}
		r.count++
		r.wallNS += s.DurNS
		r.cycles += s.DurCycles
		r.costUS += s.CostUS
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := rows[names[i]], rows[names[j]]
		if a.wallNS != b.wallNS {
			return a.wallNS > b.wallNS
		}
		return names[i] < names[j]
	})
	fmt.Printf("\n%d spans\n\n", len(spans))
	fmt.Printf("%-24s %8s %12s %12s %14s %12s\n", "span phase", "count", "wall ms", "avg us", "guest cycles", "cost us")
	for _, n := range names {
		r := rows[n]
		fmt.Printf("%-24s %8d %12.3f %12.3f %14.0f %12.1f\n",
			n, r.count,
			float64(r.wallNS)/1e6,
			float64(r.wallNS)/1e3/float64(r.count),
			r.cycles, r.costUS)
	}
}

// writeChrome re-exports the trace in the Chrome trace-event format.
func writeChrome(path string, recs []telemetry.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFolded emits "phase;event-type;isa weight" lines sorted by stack name
// so the output is deterministic for a given trace.
func writeFolded(path string, cells map[key]*agg) error {
	keys := make([]key, 0, len(cells))
	for k := range cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.phase != b.phase {
			return a.phase < b.phase
		}
		if a.typ != b.typ {
			return a.typ < b.typ
		}
		return a.isa < b.isa
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, k := range keys {
		a := cells[k]
		weight := uint64(math.Ceil(a.cost))
		if weight == 0 {
			weight = a.count
		}
		isa := k.isa
		if isa == "" {
			isa = "any"
		}
		fmt.Fprintf(w, "%s;%s;%s %d\n", k.phase, k.typ, isa, weight)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
