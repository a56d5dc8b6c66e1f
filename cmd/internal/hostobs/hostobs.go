// Package hostobs is the observability wiring the host commands share
// (hipstr-run, hipstr-fleet, hipstr-bench): the signal context, the
// -listen, -linger, -metrics-out and -timeline-out flags, span
// recording, the obsrv server and its optional health monitor, the
// end-of-run artifacts, and the linger-until-Ctrl-C step. Each command
// keeps only what is its own: hipstr-run its -trace-out, profiler and
// chunk loop; hipstr-fleet its tenant source, /readyz, sampling ticker
// and settle; hipstr-bench its suite. A command's main is Main(run); run
// registers the flags it offers on one Host, parses, then calls Start,
// Serve, WriteArtifacts, Linger and Close in that order.
package hostobs

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

// Main runs a command's run function on the process arguments and
// stdout, under a context that SIGINT or SIGTERM cancels so either signal
// drains the host and its artifacts still get written. A run error exits
// non-zero.
func Main(run func(ctx context.Context, args []string, stdout io.Writer) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		log.Fatal(err)
	}
}

// Host is one command run's observability wiring. The zero value is
// ready for the Register calls; Start binds it to the run's telemetry.
type Host struct {
	// Listen is the parsed -listen address ("" when not serving).
	Listen string

	metricsOut  string
	timelineOut string
	linger      bool
	timeline    bool // -timeline-out is registered
	out         io.Writer
	tel         *telemetry.Telemetry
	srv         *obsrv.Server
}

// Register adds -listen and -metrics-out, which every host offers.
func (h *Host) Register(fs *flag.FlagSet) {
	fs.StringVar(&h.Listen, "listen", "", "serve live observability endpoints on this address (e.g. 127.0.0.1:9120)")
	fs.StringVar(&h.metricsOut, "metrics-out", "", "write the final metrics snapshot as JSON to this file")
}

// RegisterTimeline adds -timeline-out. A host offering it records spans
// whenever it is set or the server is up.
func (h *Host) RegisterTimeline(fs *flag.FlagSet) {
	h.timeline = true
	fs.StringVar(&h.timelineOut, "timeline-out", "", "write the trace timeline as Chrome trace JSON (open in ui.perfetto.dev); turns on span recording")
}

// RegisterLinger adds -linger with the host's default.
func (h *Host) RegisterLinger(fs *flag.FlagSet, def bool) {
	fs.BoolVar(&h.linger, "linger", def, "with -listen, keep serving after the run until Ctrl-C (-linger=false for scripted runs)")
}

// Start binds the host to out, where its status lines go, and to tel.
// Span recording is strictly opt-in: only a host offering -timeline-out
// turns it on, and only when that flag or -listen is set; otherwise the
// tracer records points only and span sites cost one check.
func (h *Host) Start(out io.Writer, tel *telemetry.Telemetry) {
	h.out, h.tel = out, tel
	if h.timeline && (h.timelineOut != "" || h.Listen != "") {
		tel.EnableSpans(0)
	}
}

// Serve starts the observability server when -listen is set; otherwise
// it does nothing. The host supplies the tracer, and mon, when not nil,
// serves /history and /incidents. A nil o.Snapshot serves live registry
// snapshots, which suits registries whose collectors read only atomics;
// a host whose collectors read state owned by one goroutine passes
// mon.Latest, fed from that goroutine.
func (h *Host) Serve(o obsrv.Options, mon *health.Monitor) error {
	if h.Listen == "" {
		return nil
	}
	if o.Snapshot == nil {
		o.Snapshot = func() (telemetry.Snapshot, bool) { return h.tel.Snapshot(), true }
	}
	o.Trace = h.tel.Trace
	if mon != nil {
		o.History = mon.HistoryHandler()
		o.Incidents = mon.Recorder.Handler()
	}
	srv, err := obsrv.New(h.Listen, o)
	if err != nil {
		return err
	}
	h.srv = srv
	fmt.Fprintf(h.out, "observability: serving http://%s/\n", srv.Addr())
	go func() {
		if err := srv.Serve(); err != nil && err != http.ErrServerClosed {
			log.Printf("observability: %v", err)
		}
	}()
	return nil
}

// WriteArtifacts writes the -timeline-out Chrome trace of the trace ring
// and the -metrics-out snapshot, reporting each on the host's output.
func (h *Host) WriteArtifacts() error {
	if h.timelineOut != "" {
		recs := h.tel.Trace.Records()
		if err := WriteFile(h.timelineOut, func(w io.Writer) error { return telemetry.WriteChromeTrace(w, recs) }); err != nil {
			return err
		}
		fmt.Fprintf(h.out, "timeline written to %s (%d records; open in ui.perfetto.dev)\n",
			h.timelineOut, len(recs))
	}
	if h.metricsOut != "" {
		if err := WriteFile(h.metricsOut, h.tel.Snapshot().WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(h.out, "metrics snapshot written to %s\n", h.metricsOut)
	}
	return nil
}

// Linger keeps the server up after the work is done so late scrapers
// (dashboards, CI curl loops) can read the final state, until ctx ends
// (Ctrl-C / SIGTERM). done names what finished in the status line. It
// returns at once when not serving, with -linger off, or once ctx has
// ended.
func (h *Host) Linger(ctx context.Context, done string) {
	if h.srv == nil || !h.linger || ctx.Err() != nil {
		return
	}
	fmt.Fprintf(h.out, "%s; observability server still on http://%s/ (Ctrl-C to exit)\n", done, h.srv.Addr())
	<-ctx.Done()
}

// Close shuts the server down, giving in-flight requests up to 3 s.
func (h *Host) Close() {
	if h.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		log.Printf("observability shutdown: %v", err)
	}
}

// WriteFile creates path and fills it with write.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
