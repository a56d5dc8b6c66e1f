package health

import (
	"fmt"
	"time"
)

// Op is the breach direction of a rule.
type Op string

// The comparison directions.
const (
	OpAbove Op = ">"
	OpBelow Op = "<"
)

func (op Op) breaches(v, threshold float64) bool {
	if op == OpBelow {
		return v < threshold
	}
	return v > threshold
}

// RuleKind selects how a rule reads the history.
type RuleKind string

// The rule kinds.
const (
	// KindThreshold compares the series' latest value to Threshold.
	KindThreshold RuleKind = "threshold"
	// KindRate compares the counter-reset-safe per-second rate over
	// Window to Threshold — the rule kind for counters, where a fleet
	// respawn resetting a tenant's counters must not read as a negative
	// spike.
	KindRate RuleKind = "rate"
	// KindDeriv compares the signed per-second slope over Window to
	// Threshold — the rate-of-change kind for gauges (queue depths,
	// occupancy), where decreases are real.
	KindDeriv RuleKind = "deriv"
	// KindBurn is the SLO burn-rate kind: it fires when the series
	// breaches Threshold in at least Fraction of the Window's samples,
	// tolerating isolated excursions that a plain threshold would page on.
	KindBurn RuleKind = "burn"
)

// Rule is one declarative SLO/anomaly condition over a history series.
type Rule struct {
	// Name identifies the rule (and names its incidents).
	Name string `json:"name"`
	// Series is the history series the rule watches.
	Series string `json:"series"`
	// Kind selects the evaluation (threshold | rate | deriv | burn).
	Kind RuleKind `json:"kind"`
	// Op is the breach direction (default: above).
	Op Op `json:"op,omitempty"`
	// Threshold is the breach boundary in the kind's unit (value for
	// threshold/burn, per-second for rate/deriv).
	Threshold float64 `json:"threshold"`
	// Window is the lookback for rate/deriv/burn kinds.
	Window time.Duration `json:"window_ns,omitempty"`
	// Fraction is the burn kind's minimum breaching-sample fraction.
	Fraction float64 `json:"fraction,omitempty"`
	// For is the open hysteresis: the condition must hold continuously
	// this long before an incident opens, so a single-sample spike never
	// pages. Zero opens on the first breaching evaluation.
	For time.Duration `json:"for_ns,omitempty"`
	// Cooldown is the resolve hysteresis: an open incident resolves only
	// after the condition has been clear continuously this long.
	Cooldown time.Duration `json:"cooldown_ns,omitempty"`
	// Severity labels incidents ("page", "warn"; free-form).
	Severity string `json:"severity,omitempty"`
	// OffenderKey names the tenant field the flight recorder ranks
	// offenders by for this rule (default "respawns").
	OffenderKey string `json:"offender_key,omitempty"`
	// Description explains what the rule watches for, for bundles and
	// dashboards.
	Description string `json:"description,omitempty"`
}

// value evaluates the rule's measure at nowNS; ok=false means the history
// cannot answer yet (unknown series, or too few samples in the window),
// which is always treated as healthy.
func (r Rule) value(h *History, nowNS int64) (float64, bool) {
	switch r.Kind {
	case KindRate:
		return h.Rate(r.Series, r.Window, nowNS)
	case KindDeriv:
		return h.Deriv(r.Series, r.Window, nowNS)
	case KindBurn:
		frac, n := h.BurnFraction(r.Series, r.Window, nowNS, r.op(), r.Threshold)
		if n < 2 {
			return 0, false
		}
		return frac, true
	default: // KindThreshold
		p, ok := h.Latest(r.Series)
		return p.Value, ok
	}
}

// breaching reports whether measured value v violates the rule.
func (r Rule) breaching(v float64) bool {
	if r.Kind == KindBurn {
		return v >= r.Fraction && r.Fraction > 0
	}
	return r.op().breaches(v, r.Threshold)
}

func (r Rule) op() Op {
	if r.Op == "" {
		return OpAbove
	}
	return r.Op
}

// Condition renders the rule's condition for human-readable summaries.
func (r Rule) Condition() string {
	switch r.Kind {
	case KindRate, KindDeriv:
		return fmt.Sprintf("%s(%s, %v) %s %s/s", r.Kind, r.Series, r.Window, r.op(), fmtValue(r.Threshold))
	case KindBurn:
		return fmt.Sprintf("%s %s %s for >= %.0f%% of %v", r.Series, r.op(), fmtValue(r.Threshold), 100*r.Fraction, r.Window)
	default:
		return fmt.Sprintf("%s %s %s", r.Series, r.op(), fmtValue(r.Threshold))
	}
}

// ruleState is one rule's hysteresis bookkeeping.
type ruleState struct {
	rule Rule
	// badSinceNS is when the condition last transitioned to breaching
	// (0 = currently clear); goodSinceNS mirrors it for resolution.
	badSinceNS  int64
	goodSinceNS int64
	open        *Incident
}

// Engine evaluates rules against a history and drives the incident
// recorder. It has a single caller (the monitor's Observe loop), so it
// needs no lock of its own; the recorder it drives is what HTTP readers
// touch, and that has one.
type Engine struct {
	history *History
	rec     *Recorder
	states  []*ruleState
}

// NewEngine returns an engine evaluating rules over h, reporting to rec.
func NewEngine(h *History, rec *Recorder, rules []Rule) *Engine {
	e := &Engine{history: h, rec: rec}
	for _, r := range rules {
		if r.OffenderKey == "" {
			r.OffenderKey = "respawns"
		}
		e.states = append(e.states, &ruleState{rule: r})
	}
	return e
}

// Rules returns the engine's rule set.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, 0, len(e.states))
	for _, s := range e.states {
		out = append(out, s.rule)
	}
	return out
}

// Eval evaluates every rule at nowNS, opening and resolving incidents
// through the recorder. Call it after History.Append from the same
// goroutine.
func (e *Engine) Eval(nowNS int64) {
	for _, s := range e.states {
		v, ok := s.rule.value(e.history, nowNS)
		bad := ok && s.rule.breaching(v)
		if bad {
			s.goodSinceNS = 0
			if s.badSinceNS == 0 {
				s.badSinceNS = nowNS
			}
		} else {
			s.badSinceNS = 0
			if s.goodSinceNS == 0 {
				s.goodSinceNS = nowNS
			}
		}
		switch {
		case s.open == nil && bad && nowNS-s.badSinceNS >= s.rule.For.Nanoseconds():
			s.open = e.rec.Open(s.rule, v, e.history, nowNS)
		case s.open != nil && bad:
			e.rec.UpdatePeak(s.open, v)
		case s.open != nil && !bad && nowNS-s.goodSinceNS >= s.rule.Cooldown.Nanoseconds():
			e.rec.Resolve(s.open, nowNS)
			s.open = nil
		}
	}
}

// OpenCount returns how many of the engine's rules have an open incident.
func (e *Engine) OpenCount() int {
	n := 0
	for _, s := range e.states {
		if s.open != nil {
			n++
		}
	}
	return n
}

// Settled reports whether no rule has an open incident or a pending
// breach (one still short of its For hold). Like Eval, it belongs to the
// single evaluating goroutine.
func (e *Engine) Settled() bool {
	for _, s := range e.states {
		if s.open != nil || s.badSinceNS != 0 {
			return false
		}
	}
	return true
}
