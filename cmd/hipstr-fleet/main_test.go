package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipstr/internal/health"
	"hipstr/internal/telemetry"
)

// runFleet runs hipstr-fleet on a small seeded libquantum fleet with the
// given attack probability, writing incident bundles and the metrics
// snapshot under a temp dir. The fleet is small enough that tenant p99
// latency stays well under the 2 s latency-slo-burn objective even under
// -race: that rule reads the cumulative p99, which no longer moves after
// the drain, so a breach of it could never resolve. The settle bound is
// generous because the settle ends as soon as no rule is open or
// pending, and the respawn-storm rule needs its 3 s rate window plus 1 s
// cooldown to clear after the drain.
func runFleet(t *testing.T, attackProb string) (stdout string, snap telemetry.Snapshot, incidentDir string) {
	t.Helper()
	dir := t.TempDir()
	incidentDir = filepath.Join(dir, "incidents")
	metricsOut := filepath.Join(dir, "metrics.json")
	var out bytes.Buffer
	err := run(context.Background(), []string{
		"-workloads", "libquantum", "-guests", "40", "-quota", "20000",
		"-attack-prob", attackProb, "-respawn-limit", "2", "-seed", "11",
		"-report", "0", "-incident-settle", "15s",
		"-incident-dir", incidentDir, "-metrics-out", metricsOut,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	raw, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics artifact is not a snapshot: %v", err)
	}
	if got := snap.Counters["fleet.admitted"]; got != 40 {
		t.Errorf("fleet.admitted = %d, want 40", got)
	}
	return out.String(), snap, incidentDir
}

// TestStormIncidentsResolve runs a seeded attack storm and checks the
// incident lifecycle end to end: the storm opens at least one
// respawn-storm incident with a bundle on disk, and the post-drain
// settle resolves every incident it opened, both in the bundles and in
// the exported health counters. Before the settle waited out pending
// breaches, the final sample could open an incident that never resolved.
func TestStormIncidentsResolve(t *testing.T) {
	stdout, snap, dir := runFleet(t, "0.5")
	files, err := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	storms := 0
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var inc health.Incident
		if err := json.Unmarshal(raw, &inc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if inc.Rule.Name == "respawn-storm" {
			storms++
		}
		if inc.Open() {
			t.Errorf("%s: incident #%d (%s) never resolved", filepath.Base(path), inc.ID, inc.Rule.Name)
		}
	}
	if storms == 0 {
		t.Fatalf("no respawn-storm bundle among %d written\n%s", len(files), stdout)
	}
	opened, resolved := snap.Counters["health.incidents.opened"], snap.Counters["health.incidents.resolved"]
	if opened != uint64(len(files)) || resolved != opened {
		t.Errorf("health counters: %d opened, %d resolved; %d bundles written", opened, resolved, len(files))
	}
	if !strings.Contains(stdout, "0 still open") {
		t.Errorf("summary reports open incidents:\n%s", stdout)
	}
}

// TestQuietFleetOpensNoIncidents pins the other side of the rule set: the
// same fleet without attack injection opens nothing.
func TestQuietFleetOpensNoIncidents(t *testing.T) {
	stdout, snap, dir := runFleet(t, "0")
	if n := snap.Counters["health.incidents.opened"]; n != 0 {
		t.Errorf("quiet fleet opened %d incidents\n%s", n, stdout)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "incident-*.json")); len(files) != 0 {
		t.Errorf("quiet fleet wrote bundles: %v", files)
	}
}
