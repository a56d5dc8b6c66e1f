// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for one seed, checks the program's outputs against reference
// digests, and prints one JSON result as its last line of output:
//
//	go build -o perfbench . && ./perfbench -workload fleet-steady -seed 1 -seconds 25 -trace 0
//
// (run.sh does the build and runs it from the repository root.)
//
// Workloads:
//
//   - paper-eval: the full 14-experiment evaluation over all eight
//     profiles, a closed batch, with the seed mixed into the profile seeds;
//   - fleet-steady and fleet-churn: an open-loop Poisson phase at a fixed
//     rate, then a back-to-back drain of the same tenant mix.
//
// Every repetition runs in a fresh child process, so the process-wide
// shared translation cache and the suite's compile cache start cold, as
// they do for a user of hipstr-bench or hipstr-fleet. With -trace 0 the
// result carries the end-to-end metrics, measured with tracing off. With
// -trace 1 a separate traced repetition plus a layer replay give the
// per-layer metrics, and the layer ledger is printed before the result.
// README.md explains the workloads, metrics and sizing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// procStart approximates process start: package variables initialize
// before main runs, so set-up times measured from here include runtime
// start-up and package initialization.
var procStart = time.Now()

func main() {
	wl := flag.String("workload", "", "paper-eval | fleet-steady | fleet-churn")
	seed := flag.Int64("seed", pinnedSeed, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 25, "measured time budget of the run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics and ledger")
	outDir := flag.String("out-dir", ".bench_build/perfbench-out", "directory the traced run writes its span file into")
	record := flag.Bool("record", false, "print the reference entry for -workload/-seed/-seconds as JSON and exit")
	child := flag.String("child", "", "internal: run one child role (rep, setup, ref, replay) and print its result")
	traced := flag.Bool("traced", false, "internal: record spans in this child")
	nOpen := flag.Int("n-open", 0, "internal: tenants in the open-loop phase")
	nDrain := flag.Int("n-drain", 0, "internal: tenants in the drain phase")
	flag.Parse()

	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q (have %v)\n", *wl, workloadNames())
		os.Exit(2)
	}
	if *child != "" {
		if err := runChild(w, *child, *seed, *nOpen, *nDrain, *traced, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", *child, err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	p := w.plan(*seconds)
	if *record {
		entry, err := recordReference(w, *seed, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		out, _ := json.MarshalIndent(map[string]any{"workload": w.name, "seed": *seed, "entry": entry}, "", "  ")
		fmt.Println(string(out))
		return
	}

	var res *result
	var err error
	if *trace == 0 {
		res, err = runEndToEnd(w, *seed, p)
	} else {
		res, err = runTraced(w, *seed, p, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's outcome: the JSON last line plus the sample count
// behind each metric, which the human-readable table shows.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	samples  map[string]int
	extra    []string // table-only lines
	failures []string
	warnings []string
}

func newResult() *result {
	return &result{Metrics: map[string]metric{}, samples: map[string]int{}}
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = n
}

// print writes the metric table, then the JSON result as the last line.
func (r *result) print(f *os.File) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(f, "%-36s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, r.samples[n])
	}
	for _, line := range r.extra {
		fmt.Fprintln(f, line)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(f, "%-36s %14.6g %-6s n=%d\n", "failed_frac", frac, "frac", r.Attempted)
	for i, msg := range r.failures {
		if i == 10 {
			fmt.Fprintf(f, "... %d more failures\n", len(r.failures)-10)
			break
		}
		fmt.Fprintln(f, "FAILED:", msg)
	}
	for _, msg := range r.warnings {
		fmt.Fprintln(f, "WARNING:", msg)
	}
	line, _ := json.Marshal(r)
	fmt.Fprintln(f, string(line))
}
