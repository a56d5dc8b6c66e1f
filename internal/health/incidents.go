package health

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

// Defaults bounding the incident store and per-bundle forensic captures.
const (
	DefaultMaxIncidents = 64
	DefaultTailEvents   = 128
	DefaultOffenderK    = 5
)

// Offender is one tenant implicated in an incident, ranked by the rule's
// offender key at capture time.
type Offender struct {
	ID       string             `json:"id"`
	Workload string             `json:"workload,omitempty"`
	State    string             `json:"state,omitempty"`
	Score    float64            `json:"score"`
	Fields   map[string]float64 `json:"fields,omitempty"`
}

// Incident is one rule firing with its forensic bundle: everything the
// flight recorder could capture at open time, plus resolution metadata
// once the rule clears.
type Incident struct {
	ID       int    `json:"id"`
	Rule     Rule   `json:"rule"`
	Severity string `json:"severity,omitempty"`
	// OpenedNS/ResolvedNS are absolute wall-clock nanoseconds; ResolvedNS
	// is 0 while the incident is open.
	OpenedNS   int64 `json:"opened_ns"`
	ResolvedNS int64 `json:"resolved_ns,omitempty"`
	// Value is the measure that opened the incident; Peak is the worst
	// value observed while it stayed open.
	Value float64 `json:"value"`
	Peak  float64 `json:"peak"`
	// Window is the triggering series' history window at open time.
	Window []Point `json:"window,omitempty"`
	// Events are the most recent trace records at open time (the
	// flight-recorder tap): points and, with span recording on, spans, in
	// stream order.
	Events []telemetry.Record `json:"events,omitempty"`
	// Offenders are the top tenants by the rule's offender key.
	Offenders []Offender `json:"offenders,omitempty"`
	// ProfileTop is the profiler's top-table text, when one is attached.
	ProfileTop string `json:"profile_top,omitempty"`
	// Config is the host configuration at open time.
	Config json.RawMessage `json:"config,omitempty"`
}

// Open reports whether the incident is still open.
func (inc *Incident) Open() bool { return inc.ResolvedNS == 0 }

// Duration is open-to-resolve (or open-to-now for open incidents).
func (inc *Incident) Duration(nowNS int64) time.Duration {
	end := inc.ResolvedNS
	if end == 0 {
		end = nowNS
	}
	return time.Duration(end - inc.OpenedNS)
}

// RecorderConfig wires the flight recorder's forensic sources. Every
// field is optional: a nil source just leaves its bundle section empty.
type RecorderConfig struct {
	// MaxIncidents bounds the in-memory incident store (0 = default);
	// the oldest resolved incidents are evicted first.
	MaxIncidents int
	// TailEvents bounds the per-bundle trace capture.
	TailEvents int
	// OffenderK bounds the per-bundle offender list.
	OffenderK int
	// Events taps the most recent n trace records (telemetry.Tracer.Tail).
	Events func(n int) []telemetry.Record
	// Tenants supplies offender candidates (the fleet host).
	Tenants obsrv.TenantSource
	// Profile supplies the profiler top-table text.
	Profile func() (string, bool)
	// HostConfig is marshaled into every bundle.
	HostConfig any
	// Dir, when set, dumps each bundle as incident-<id>-<rule>.json,
	// written at open and rewritten at resolve.
	Dir string
	// Emit, when set, receives an EvPolicy event at open and resolve so
	// incidents surface on the live /events stream.
	Emit func(telemetry.Record)
}

// Recorder captures, stores, and serves incidents. Open/UpdatePeak/
// Resolve are called by the engine's single evaluation goroutine; the
// accessors are safe from HTTP handler goroutines.
type Recorder struct {
	cfg RecorderConfig

	mu        sync.RWMutex
	nextID    int
	incidents []*Incident
	opened    uint64
	resolved  uint64
	dumpErr   error
}

// NewRecorder returns a recorder with cfg's sources wired.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.MaxIncidents <= 0 {
		cfg.MaxIncidents = DefaultMaxIncidents
	}
	if cfg.TailEvents <= 0 {
		cfg.TailEvents = DefaultTailEvents
	}
	if cfg.OffenderK <= 0 {
		cfg.OffenderK = DefaultOffenderK
	}
	return &Recorder{cfg: cfg}
}

// Open captures a forensic bundle for rule firing with measure value and
// stores the new incident.
func (r *Recorder) Open(rule Rule, value float64, h *History, nowNS int64) *Incident {
	inc := &Incident{
		Rule:     rule,
		Severity: rule.Severity,
		OpenedNS: nowNS,
		Value:    value,
		Peak:     value,
	}
	// The triggering window: the rule's lookback, or the last 10 samples
	// for windowless threshold rules.
	if rule.Window > 0 {
		inc.Window = h.SeriesWindow(rule.Series, nowNS-rule.Window.Nanoseconds(), nowNS)
	} else if pts := h.Series(rule.Series); len(pts) > 0 {
		if len(pts) > 10 {
			pts = pts[len(pts)-10:]
		}
		inc.Window = pts
	}
	if r.cfg.Events != nil {
		inc.Events = r.cfg.Events(r.cfg.TailEvents)
	}
	if r.cfg.Tenants != nil {
		inc.Offenders = topOffenders(r.cfg.Tenants, rule.OffenderKey, r.cfg.OffenderK)
	}
	if r.cfg.Profile != nil {
		if top, ok := r.cfg.Profile(); ok {
			inc.ProfileTop = top
		}
	}
	if r.cfg.HostConfig != nil {
		if raw, err := json.Marshal(r.cfg.HostConfig); err == nil {
			inc.Config = raw
		}
	}

	r.mu.Lock()
	r.nextID++
	inc.ID = r.nextID
	r.incidents = append(r.incidents, inc)
	r.opened++
	r.evictLocked()
	r.mu.Unlock()

	r.dump(inc)
	if r.cfg.Emit != nil {
		r.cfg.Emit(telemetry.Record{
			Name: telemetry.EvPolicy,
			Detail: fmt.Sprintf("incident-open #%d %s: %s (value %g)",
				inc.ID, rule.Name, rule.Condition(), value),
		})
	}
	return inc
}

// UpdatePeak tightens the worst-observed measure of an open incident.
func (r *Recorder) UpdatePeak(inc *Incident, v float64) {
	r.mu.Lock()
	if inc.Rule.op() == OpBelow {
		if v < inc.Peak {
			inc.Peak = v
		}
	} else if v > inc.Peak {
		inc.Peak = v
	}
	r.mu.Unlock()
}

// Resolve closes the incident and rewrites its artifact.
func (r *Recorder) Resolve(inc *Incident, nowNS int64) {
	r.mu.Lock()
	inc.ResolvedNS = nowNS
	r.resolved++
	r.mu.Unlock()
	r.dump(inc)
	if r.cfg.Emit != nil {
		r.cfg.Emit(telemetry.Record{
			Name: telemetry.EvPolicy,
			Detail: fmt.Sprintf("incident-resolve #%d %s after %v",
				inc.ID, inc.Rule.Name, inc.Duration(nowNS).Round(time.Millisecond)),
		})
	}
}

// evictLocked enforces the store bound, dropping oldest resolved
// incidents first, then oldest open ones. Caller holds mu.
func (r *Recorder) evictLocked() {
	for len(r.incidents) > r.cfg.MaxIncidents {
		at := -1
		for i, inc := range r.incidents {
			if !inc.Open() {
				at = i
				break
			}
		}
		if at < 0 {
			at = 0
		}
		r.incidents = append(r.incidents[:at], r.incidents[at+1:]...)
	}
}

// Counts returns (opened, resolved, currently stored).
func (r *Recorder) Counts() (opened, resolved uint64, stored int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.opened, r.resolved, len(r.incidents)
}

// Incidents returns copies of the stored incidents, oldest first. Copies,
// because open incidents keep mutating (Peak, ResolvedNS) under r.mu.
func (r *Recorder) Incidents() []Incident {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Incident, 0, len(r.incidents))
	for _, inc := range r.incidents {
		out = append(out, *inc)
	}
	return out
}

// Incident returns a copy of one incident by ID.
func (r *Recorder) Incident(id int) (Incident, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, inc := range r.incidents {
		if inc.ID == id {
			return *inc, true
		}
	}
	return Incident{}, false
}

// DumpErr returns the first artifact-write error, if any.
func (r *Recorder) DumpErr() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.dumpErr
}

// dump writes the incident bundle artifact under cfg.Dir: a pretty JSON
// file per incident, rewritten at resolve so the final artifact carries
// the resolution.
func (r *Recorder) dump(inc *Incident) {
	if r.cfg.Dir == "" {
		return
	}
	r.mu.RLock()
	cp := *inc
	r.mu.RUnlock()
	err := func() error {
		if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
			return err
		}
		buf, err := json.MarshalIndent(cp, "", "  ")
		if err != nil {
			return err
		}
		name := fmt.Sprintf("incident-%03d-%s.json", cp.ID, cp.Rule.Name)
		return os.WriteFile(filepath.Join(r.cfg.Dir, name), buf, 0o644)
	}()
	if err != nil {
		r.mu.Lock()
		if r.dumpErr == nil {
			r.dumpErr = err
		}
		r.mu.Unlock()
	}
}

// topOffenders ranks tenants by the named field (descending, ties broken
// by steps then ID) and returns the top k with a nonzero score — the
// tenants actually implicated, not an arbitrary prefix of the fleet.
func topOffenders(src obsrv.TenantSource, key string, k int) []Offender {
	list := src.TenantList()
	cands := make([]Offender, 0, len(list))
	for _, ti := range list {
		score := ti.Fields[key]
		if score <= 0 {
			continue
		}
		cands = append(cands, Offender{
			ID:       ti.ID,
			Workload: ti.Workload,
			State:    ti.State,
			Score:    score,
			Fields:   ti.Fields,
		})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		if si, sj := cands[i].Fields["steps"], cands[j].Fields["steps"]; si != sj {
			return si > sj
		}
		return cands[i].ID < cands[j].ID
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}
