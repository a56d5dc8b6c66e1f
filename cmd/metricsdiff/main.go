// Command metricsdiff loads two metrics snapshots and prints their
// counters, gauges, and histogram quantiles side by side, with deltas.
// Typical use: compare the same workload under two configurations, or two
// revisions of the VM.
//
// Each input is a metrics snapshot as hipstr-run and hipstr-bench write
// it with -metrics-out. A hipstr-bench snapshot already carries every
// experiment's rows as experiments.<name>.<label>.<field> gauges and its
// runtime as bench.seconds.<name>, flattened by the experiment engine
// itself, so evaluation runs diff through the same file:
//
//	hipstr-run -workload mcf -metrics-out a.json
//	hipstr-run -workload mcf -rat 64 -metrics-out b.json
//	metricsdiff a.json b.json
//
//	hipstr-bench -quick -metrics-out before.json
//	hipstr-bench -quick -metrics-out after.json   # on the new revision
//	metricsdiff before.json after.json
//
// Experiment result artifacts (-results-out) are not metrics snapshots
// and are rejected with a pointer to -metrics-out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"hipstr"
)

// load reads a metrics snapshot, rejecting anything else (a -results-out
// artifact or directory included) with an error naming -metrics-out.
func load(path string) (hipstr.MetricsSnapshot, error) {
	var s hipstr.MetricsSnapshot
	fi, err := os.Stat(path)
	if err != nil {
		return s, err
	}
	if fi.IsDir() {
		return s, fmt.Errorf("%s: a directory, not a metrics snapshot (write one with hipstr-bench -metrics-out)", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if _, ok := probe["counters"]; !ok {
		return s, fmt.Errorf("%s: not a metrics snapshot (write one with -metrics-out; -results-out artifacts are not read)", path)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// keys returns the sorted union of both maps' keys.
func keys[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func main() {
	all := flag.Bool("all", false, "include unchanged metrics")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: metricsdiff [-all] a.json b.json")
		os.Exit(2)
	}
	pa, pb := flag.Arg(0), flag.Arg(1)
	a, err := load(pa)
	if err != nil {
		log.Fatal(err)
	}
	b, err := load(pb)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a: %s\nb: %s\n", pa, pb)

	var counters [][4]string
	for _, k := range keys(a.Counters, b.Counters) {
		av, bv := a.Counters[k], b.Counters[k]
		if av == bv && !*all {
			continue
		}
		counters = append(counters, [4]string{k,
			fmt.Sprintf("%d", av), fmt.Sprintf("%d", bv),
			fmt.Sprintf("%+d", int64(bv)-int64(av))})
	}
	if len(counters) > 0 {
		fmt.Printf("\n== counters ==\n%-44s %14s %14s %12s\n", "name", "a", "b", "delta")
		for _, row := range counters {
			fmt.Printf("%-44s %14s %14s %12s\n", row[0], row[1], row[2], row[3])
		}
	}

	var gauges [][4]string
	for _, k := range keys(a.Gauges, b.Gauges) {
		av, bv := a.Gauges[k], b.Gauges[k]
		if av == bv && !*all {
			continue
		}
		gauges = append(gauges, [4]string{k,
			fmt.Sprintf("%.6g", av), fmt.Sprintf("%.6g", bv),
			fmt.Sprintf("%+.6g", bv-av)})
	}
	if len(gauges) > 0 {
		fmt.Printf("\n== gauges ==\n%-44s %14s %14s %12s\n", "name", "a", "b", "delta")
		for _, row := range gauges {
			fmt.Printf("%-44s %14s %14s %12s\n", row[0], row[1], row[2], row[3])
		}
	}

	printed := false
	for _, k := range keys(a.Histograms, b.Histograms) {
		ah, bh := a.Histograms[k], b.Histograms[k]
		if ah.Count == bh.Count && ah.Sum == bh.Sum && !*all {
			continue
		}
		if !printed {
			fmt.Printf("\n== histograms ==\n")
			printed = true
		}
		fmt.Printf("%s\n", k)
		fmt.Printf("  %-7s a %14s  b %14s  delta %+d\n", "count",
			fmt.Sprintf("%d", ah.Count), fmt.Sprintf("%d", bh.Count),
			int64(bh.Count)-int64(ah.Count))
		fmt.Printf("  %-7s a %14.6g  b %14.6g  delta %+.6g\n", "mean", ah.Mean, bh.Mean, bh.Mean-ah.Mean)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			aq, bq := ah.Quantile(q), bh.Quantile(q)
			fmt.Printf("  %-7s a %14.6g  b %14.6g  delta %+.6g\n",
				fmt.Sprintf("p%g", 100*q), aq, bq, bq-aq)
		}
	}
	if len(counters)+len(gauges) == 0 && !printed {
		fmt.Println("\nno differences.")
	}
}
