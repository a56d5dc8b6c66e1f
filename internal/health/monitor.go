package health

import (
	"time"

	"hipstr/internal/telemetry"
)

// Config assembles a Monitor: history bounds, the rule set, and the
// flight recorder's forensic sources.
type Config struct {
	// WindowSamples / MaxSeries bound the history ring (0 = defaults).
	WindowSamples int
	MaxSeries     int
	// Rules is the declarative SLO/anomaly rule set.
	Rules []Rule
	// Recorder wires the forensic sources and artifact dir.
	Recorder RecorderConfig
	// Telemetry, when set, receives the health engine's own series
	// (health.samples, health.incidents.*) and the recorder's incident
	// open/resolve events — so the watcher is itself watchable.
	Telemetry *telemetry.Telemetry
}

// Monitor owns one history ring, one rule engine, and one incident
// recorder. Observe is its single write entry point and must be called
// from one goroutine (the one that snapshots the registry); every other
// method is safe concurrently with it.
type Monitor struct {
	History  *History
	Engine   *Engine
	Recorder *Recorder
}

// NewMonitor builds the monitor.
func NewMonitor(cfg Config) *Monitor {
	if cfg.Recorder.Emit == nil && cfg.Telemetry != nil {
		cfg.Recorder.Emit = cfg.Telemetry.Emit
	}
	h := NewHistory(cfg.WindowSamples, cfg.MaxSeries)
	rec := NewRecorder(cfg.Recorder)
	m := &Monitor{
		History:  h,
		Engine:   NewEngine(h, rec, cfg.Rules),
		Recorder: rec,
	}
	if tel := cfg.Telemetry; tel != nil {
		tel.Reg.RegisterCollector(func() {
			opened, resolved, stored := rec.Counts()
			tel.Counter("health.incidents.opened").Set(opened)
			tel.Counter("health.incidents.resolved").Set(resolved)
			tel.Gauge("health.incidents.stored").Set(float64(stored))
			tel.Gauge("health.incidents.open").Set(float64(opened - resolved))
			tel.Counter("health.samples").Set(h.Total())
			tel.Counter("health.series_dropped").Set(h.DroppedSeries())
		})
	}
	return m
}

// Observe appends one registry snapshot to the history and evaluates the
// rules at tsNS.
func (m *Monitor) Observe(tsNS int64, snap telemetry.Snapshot) {
	m.History.Append(tsNS, snap)
	m.Engine.Eval(tsNS)
}

// ObserveNow is Observe stamped with the current wall clock.
func (m *Monitor) ObserveNow(snap telemetry.Snapshot) {
	m.Observe(time.Now().UnixNano(), snap)
}

// OpenIncidents reports how many incidents are currently open.
func (m *Monitor) OpenIncidents() int {
	opened, resolved, _ := m.Recorder.Counts()
	return int(opened - resolved)
}
