package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSnapshot(t *testing.T) {
	path := writeFile(t, t.TempDir(), "m.json",
		`{"counters":{"dbt.migrations":7},"gauges":{"dbt.cache.x86.occupancy":0.5},"histograms":{}}`)
	s, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Counters["dbt.migrations"] != 7 {
		t.Errorf("counter = %d, want 7", s.Counters["dbt.migrations"])
	}
	if s.Gauges["dbt.cache.x86.occupancy"] != 0.5 {
		t.Errorf("gauge = %v", s.Gauges["dbt.cache.x86.occupancy"])
	}
}

func TestLoadRejectsUnknownShape(t *testing.T) {
	dir := t.TempDir()
	if _, err := load(writeFile(t, dir, "x.json", `{"foo": 1}`)); err == nil {
		t.Error("unknown JSON shape must be rejected")
	}
	if _, err := load(writeFile(t, dir, "y.json", `not json`)); err == nil {
		t.Error("non-JSON must be rejected")
	}
	// A -results-out artifact, and a -results-out directory, are pointed
	// at -metrics-out, which carries the same experiments.* gauges.
	res := writeFile(t, dir, "fig9.json",
		`{"name":"fig9","seconds":1,"rows":[{"Bench":"mcf","O3":0.7}]}`)
	if _, err := load(res); err == nil || !strings.Contains(err.Error(), "-metrics-out") {
		t.Errorf("result artifact: err = %v, want one naming -metrics-out", err)
	}
	if _, err := load(dir); err == nil || !strings.Contains(err.Error(), "-metrics-out") {
		t.Errorf("directory: err = %v, want one naming -metrics-out", err)
	}
}
