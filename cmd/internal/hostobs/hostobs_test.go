package hostobs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

// TestMainCancelsOnSIGTERM pins that SIGTERM, not only SIGINT, cancels
// the run context, so a terminated host still drains and writes its
// artifacts.
func TestMainCancelsOnSIGTERM(t *testing.T) {
	Main(func(ctx context.Context, _ []string, _ io.Writer) error {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Error(err)
			return nil
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("SIGTERM did not cancel the context")
		}
		return nil
	})
}

// TestRegisterKeepsHostFlags checks that each host gets only the flags
// it registers, with its own -linger default.
func TestRegisterKeepsHostFlags(t *testing.T) {
	for _, tc := range []struct {
		name     string
		timeline bool
		linger   string // -linger default; "" when not offered
	}{
		{"run", true, "true"},
		{"fleet", false, "false"},
		{"bench", true, ""},
	} {
		fs := flag.NewFlagSet(tc.name, flag.ContinueOnError)
		var h Host
		h.Register(fs)
		if tc.timeline {
			h.RegisterTimeline(fs)
		}
		if tc.linger != "" {
			h.RegisterLinger(fs, tc.linger == "true")
		}
		for _, name := range []string{"listen", "metrics-out"} {
			if fs.Lookup(name) == nil {
				t.Errorf("%s: -%s not registered", tc.name, name)
			}
		}
		if got := fs.Lookup("timeline-out") != nil; got != tc.timeline {
			t.Errorf("%s: -timeline-out registered = %v", tc.name, got)
		}
		linger := ""
		if f := fs.Lookup("linger"); f != nil {
			linger = f.DefValue
		}
		if linger != tc.linger {
			t.Errorf("%s: -linger default %q, want %q", tc.name, linger, tc.linger)
		}
	}
}

// TestWriteArtifactsCountsWrittenRecords pins that the timeline line
// reports the records the file holds (the bounded ring), not every
// record ever made, and that both artifacts parse.
func TestWriteArtifactsCountsWrittenRecords(t *testing.T) {
	dir := t.TempDir()
	tel := telemetry.New()
	tel.EnableSpans(4)
	for i := 0; i < 10; i++ {
		tel.StartSpan("test", "work").End()
	}
	tel.Counter("test.runs").Inc()
	var out bytes.Buffer
	h := Host{
		timelineOut: filepath.Join(dir, "timeline.json"),
		metricsOut:  filepath.Join(dir, "metrics.json"),
	}
	h.Start(&out, tel)
	if err := h.WriteArtifacts(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(4 records;") {
		t.Errorf("timeline line does not report the 4 ring records:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "metrics snapshot written to") {
		t.Errorf("no metrics line:\n%s", out.String())
	}
	raw, err := os.ReadFile(h.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	if snap.Counters["test.runs"] != 1 {
		t.Errorf("metrics artifact counters = %v", snap.Counters)
	}
	raw, err = os.ReadFile(h.timelineOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline artifact: %v", err)
	}
	wall := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.PID == 1 {
			wall++
		}
	}
	if wall != 4 {
		t.Errorf("timeline holds %d wall-clock spans, want 4", wall)
	}
}

// TestServeMonitorLingerClose drives the server lifecycle: the monitor's
// last observed snapshot is what /metrics serves, /history and
// /incidents are mounted, Linger holds until the context ends, and Close
// shuts the listener down.
func TestServeMonitorLingerClose(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	var h Host
	h.Register(fs)
	h.RegisterLinger(fs, true)
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	var out bytes.Buffer
	h.Start(&out, tel)
	mon := health.NewMonitor(health.Config{})
	tel.Counter("test.chunks").Add(7)
	mon.ObserveNow(tel.Snapshot())
	tel.Counter("test.chunks").Add(1) // not observed: must not be served
	if err := h.Serve(obsrv.Options{Snapshot: mon.Latest}, mon); err != nil {
		t.Fatal(err)
	}
	base, ok := strings.CutPrefix(strings.TrimSuffix(out.String(), "/\n"), "observability: serving ")
	if !ok {
		t.Fatalf("no serving line:\n%s", out.String())
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "test_chunks 7\n") {
		t.Errorf("/metrics does not serve the observed snapshot:\n%s", body)
	}
	get("/history")
	get("/incidents")

	ctx, cancel := context.WithCancel(context.Background())
	lingered := make(chan struct{})
	go func() {
		h.Linger(ctx, "run complete")
		close(lingered)
	}()
	select {
	case <-lingered:
		t.Fatal("Linger returned before the context ended")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	<-lingered
	if !strings.Contains(out.String(), "run complete; observability server still on "+base+"/") {
		t.Errorf("no linger line:\n%s", out.String())
	}

	h.Close()
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("server still answering after Close")
	}
}
