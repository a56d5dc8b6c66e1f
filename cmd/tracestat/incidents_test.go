package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hipstr/internal/health"
)

func bundle(id int, rule string, openNS, resolveNS int64, peak float64, offenders ...string) health.Incident {
	inc := health.Incident{
		ID:       id,
		Rule:     health.Rule{Name: rule, Series: "fleet.respawns", Kind: health.KindRate, Threshold: 5},
		Severity: "page",
		OpenedNS: openNS, ResolvedNS: resolveNS,
		Value: peak / 2, Peak: peak,
		Window: []health.Point{{TimeNS: openNS, Value: peak}},
	}
	for _, id := range offenders {
		inc.Offenders = append(inc.Offenders, health.Offender{ID: id, Workload: "libquantum", Score: 3})
	}
	return inc
}

func writeBundle(t *testing.T, dir string, inc health.Incident) {
	t.Helper()
	buf, err := json.MarshalIndent(inc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, "incident-001-"+inc.Rule.Name+".json")
	if inc.ID != 1 {
		name = filepath.Join(dir, "incident-002-"+inc.Rule.Name+".json")
	}
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeIncidentBundles(t *testing.T) {
	dir := t.TempDir()
	writeBundle(t, dir, bundle(1, "respawn-storm", 1e9, 4e9, 120, "t7", "t3"))
	writeBundle(t, dir, bundle(2, "latency-slo-burn", 2e9, 0, 0.8))

	var b strings.Builder
	if err := summarizeIncidents(dir, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"2 incidents", "1 resolved, 1 open",
		"respawn-storm", "resolved", "3s", "120.0", "t7(libquantum 3) t3(libquantum 3)",
		"latency-slo-burn", "open",
		"1 window points",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestSummarizeEmptyDir(t *testing.T) {
	var b strings.Builder
	if err := summarizeIncidents(t.TempDir(), &b); err == nil ||
		!strings.Contains(err.Error(), "no incident") {
		t.Fatalf("empty dir error: %v", err)
	}
}
