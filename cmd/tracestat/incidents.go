package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"hipstr/internal/health"
)

// summarizeIncidents reads a -incident-dir of flight-recorder bundles and
// prints one row per incident: rule, state, duration, peak measure, and
// the top offender tenants. Each incident-*.json bundle is the
// recorder's last rewrite of that incident, so a resolved incident's
// bundle carries its resolution.
func summarizeIncidents(dir string, w io.Writer) error {
	incs, src, err := loadIncidents(dir)
	if err != nil {
		return err
	}
	sort.Slice(incs, func(i, j int) bool { return incs[i].ID < incs[j].ID })

	open := 0
	for _, inc := range incs {
		if inc.Open() {
			open++
		}
	}
	fmt.Fprintf(w, "%d incidents in %s (%s): %d resolved, %d open\n\n",
		len(incs), dir, src, len(incs)-open, open)
	if len(incs) == 0 {
		return nil
	}

	fmt.Fprintf(w, "%-4s %-24s %-6s %-9s %10s %12s  %s\n",
		"id", "rule", "sev", "state", "duration", "peak", "offenders")
	for _, inc := range incs {
		state, dur := "open", "-"
		if !inc.Open() {
			state = "resolved"
			dur = inc.Duration(0).Round(time.Millisecond).String()
		}
		fmt.Fprintf(w, "%-4d %-24s %-6s %-9s %10s %12.1f  %s\n",
			inc.ID, inc.Rule.Name, inc.Severity, state, dur, inc.Peak,
			offenderLine(inc.Offenders))
		fmt.Fprintf(w, "     %s; %d window points, %d trace records\n",
			inc.Rule.Condition(), len(inc.Window), len(inc.Events))
	}
	return nil
}

// loadIncidents reads the bundles, reporting how many files it read.
func loadIncidents(dir string) ([]health.Incident, string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "incident-*.json"))
	if err != nil {
		return nil, "", err
	}
	if len(files) == 0 {
		return nil, "", fmt.Errorf("%s: no incident-*.json bundles", dir)
	}
	var incs []health.Incident
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, "", err
		}
		var inc health.Incident
		if err := json.Unmarshal(buf, &inc); err != nil {
			return nil, "", fmt.Errorf("%s: %w", f, err)
		}
		incs = append(incs, inc)
	}
	return incs, fmt.Sprintf("%d bundle files", len(files)), nil
}

func offenderLine(offs []health.Offender) string {
	if len(offs) == 0 {
		return "-"
	}
	parts := make([]string, len(offs))
	for i, o := range offs {
		parts[i] = fmt.Sprintf("%s(%s %.0f)", o.ID, o.Workload, o.Score)
	}
	return strings.Join(parts, " ")
}
