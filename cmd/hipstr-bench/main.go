// Command hipstr-bench regenerates every table and figure of the paper's
// evaluation (§6-7) through the experiment engine: drivers come from the
// experiment registry, each driver's independent cells fan out on a
// bounded worker pool (-parallel), and results are exportable as both a
// metrics artifact (-metrics-out) and per-experiment JSON result
// artifacts (-results-out). Printed tables are byte-identical at any
// -parallel setting. Use -quick for a reduced sweep on the three smallest
// benchmarks and -list to see the registry. With -listen the observability
// server exposes the suite's metrics (per-figure series as they publish),
// the event stream, and pprof over HTTP while the evaluation runs.
// SIGINT or SIGTERM cancels mid-sweep: in-flight cells finish, the rest
// are skipped, and the -metrics-out and -timeline-out artifacts are still
// written before the cancellation is reported.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"hipstr"
	"hipstr/cmd/internal/hostobs"
	"hipstr/internal/obsrv"
)

func main() { hostobs.Main(run) }

// run executes one hipstr-bench invocation with the given command-line
// arguments, writing its report to stdout; ctx cancellation stops the
// sweep after the in-flight cells.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hipstr-bench", flag.ExitOnError)
	quick := fs.Bool("quick", false, "reduced sweeps on the three smallest benchmarks")
	outPath := fs.String("out", "", "also write the report to this file")
	only := fs.String("only", "", "run a comma-separated subset (e.g. fig9,fig12,httpd)")
	list := fs.Bool("list", false, "list registered experiments and exit")
	parallel := fs.Int("parallel", 0, "worker pool per experiment (0 = GOMAXPROCS, 1 = serial)")
	resultsOut := fs.String("results-out", "", "write one <experiment>.json result artifact per experiment into this directory")
	keepGoing := fs.Bool("keep-going", false, "continue with remaining experiments after a failure")
	var obs hostobs.Host
	obs.Register(fs)
	obs.RegisterTimeline(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, e := range hipstr.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.Name(), e.Description())
		}
		return nil
	}

	exps, err := hipstr.SelectExperiments(*only)
	if err != nil {
		return err
	}

	w := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = io.MultiWriter(stdout, f)
	}

	var s *hipstr.ExperimentSuite
	if *quick {
		s = hipstr.NewQuickExperiments(w)
	} else {
		s = hipstr.NewExperiments(w)
	}
	s.Parallel = *parallel
	tel := hipstr.NewTelemetry()
	s.Telemetry = tel
	obs.Start(w, tel)
	defer obs.Close()

	// The suite registry carries no collectors (experiments publish series
	// with atomic writes), so handlers snapshot it live from any goroutine.
	if err := obs.Serve(obsrv.Options{}, nil); err != nil {
		return err
	}

	results, runErr := hipstr.RunExperiments(ctx, s, exps, hipstr.ExperimentOptions{
		ResultsDir:      *resultsOut,
		ContinueOnError: *keepGoing,
	})
	if runErr == nil {
		fmt.Fprintln(w, "\ndone.")
		if *resultsOut != "" {
			fmt.Fprintf(w, "%d result artifacts written to %s\n", len(results), *resultsOut)
		}
	}
	if err := obs.WriteArtifacts(); err != nil {
		return err
	}
	return runErr
}
