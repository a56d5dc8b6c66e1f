package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipstr/internal/telemetry"
)

// TestRunArtifacts runs the quick table2 experiment with every artifact
// flag and checks that each artifact parses, and that the timeline line
// reports the records the file actually holds.
func TestRunArtifacts(t *testing.T) {
	dir := t.TempDir()
	metricsOut := filepath.Join(dir, "metrics.json")
	timelineOut := filepath.Join(dir, "timeline.json")
	resultsOut := filepath.Join(dir, "results")
	var stdout bytes.Buffer
	err := run(context.Background(), []string{
		"-quick", "-only", "table2", "-parallel", "1",
		"-metrics-out", metricsOut, "-timeline-out", timelineOut, "-results-out", resultsOut,
	}, &stdout)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, stdout.String())
	}

	raw, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics artifact: %v", err)
	}
	if len(snap.Counters)+len(snap.Gauges) == 0 {
		t.Error("metrics artifact is empty")
	}

	raw, err = os.ReadFile(timelineOut)
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
	// Every record is one event on the wall-clock process (pid 1).
	records := 0
	for _, e := range doc.TraceEvents {
		if e.PID == 1 && e.Ph != "M" {
			records++
		}
	}
	if records == 0 {
		t.Error("timeline holds no records")
	}
	want := fmt.Sprintf("timeline written to %s (%d records;", timelineOut, records)
	if !strings.Contains(stdout.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
	}

	raw, err = os.ReadFile(filepath.Join(resultsOut, "table2.json"))
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]any
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result artifact: %v", err)
	}
	if res["name"] != "table2" {
		t.Errorf("result artifact names %v", res["name"])
	}
}

// TestRunCancelled checks that a cancelled run reports the cancellation
// as an error, without panicking, and still writes its metrics artifact.
func TestRunCancelled(t *testing.T) {
	metricsOut := filepath.Join(t.TempDir(), "metrics.json")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout bytes.Buffer
	err := run(ctx, []string{"-quick", "-only", "table2", "-metrics-out", metricsOut}, &stdout)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(metricsOut); err != nil {
		t.Errorf("cancelled run wrote no metrics artifact: %v", err)
	}
}
