package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipstr/internal/telemetry"
)

// TestRunHIPStRTraceAndTimeline runs a short protected libquantum with
// -trace-out and -timeline-out, then checks both artifacts: every JSONL
// line is one strict telemetry.Record that the trace reader accepts, the
// stream holds translate points and migrate spans, and each migrate span
// on the timeline is covered to >= 99% by its phase children's cost.
func TestRunHIPStRTraceAndTimeline(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "trace.jsonl")
	timelineOut := filepath.Join(dir, "timeline.json")
	var stdout bytes.Buffer
	err := run(context.Background(), []string{
		"-workload", "libquantum", "-mode", "hipstr", "-steps", "3000000",
		"-report-interval", "0", "-trace-out", traceOut, "-timeline-out", timelineOut,
	}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "hipstr: exited=true") {
		t.Fatalf("run did not finish the workload:\n%s", stdout.String())
	}

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	lines := 0
	for sc.Scan() {
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var r telemetry.Record
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("line %d is not a trace record: %v\n%s", lines+1, err, sc.Text())
		}
		if r.Kind != telemetry.KindSpan && r.Kind != telemetry.KindEvent {
			t.Fatalf("line %d has kind %q", lines+1, r.Kind)
		}
		lines++
	}
	recs, cut, err := telemetry.ReadJSONL(bytes.NewReader(raw))
	if err != nil || cut != 0 || len(recs) != lines {
		t.Fatalf("trace reader: %d of %d records, cut line %d, err %v", len(recs), lines, cut, err)
	}
	var translatePoints, migrateSpans int
	for _, r := range recs {
		switch {
		case r.Kind == telemetry.KindEvent && r.Name == telemetry.EvTranslate:
			translatePoints++
		case r.Kind == telemetry.KindSpan && r.Name == "migrate":
			migrateSpans++
		}
	}
	if translatePoints == 0 || migrateSpans == 0 {
		t.Fatalf("trace holds %d translate points and %d migrate spans, want both", translatePoints, migrateSpans)
	}

	raw, err = os.ReadFile(timelineOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("timeline is not JSON: %v", err)
	}
	// Wall-clock slices only: pid 2 repeats spans on the guest-cycle axis.
	costs := map[float64]float64{} // parent id -> summed child cost_us
	var migrates []map[string]any
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.PID != 1 {
			continue
		}
		if parent, ok := e.Args["parent"].(float64); ok {
			c, _ := e.Args["cost_us"].(float64)
			costs[parent] += c
		}
		if e.Name == "migrate" {
			migrates = append(migrates, e.Args)
		}
	}
	if len(migrates) == 0 {
		t.Fatal("timeline holds no migrate span")
	}
	for _, m := range migrates {
		id, _ := m["id"].(float64)
		cost, _ := m["cost_us"].(float64)
		if child := costs[id]; child < 0.99*cost {
			t.Errorf("migrate span %v: phases cover %.1f of %.1f us", id, child, cost)
		}
	}
}
