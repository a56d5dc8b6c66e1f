// Package telemetry is the HIPStR VM's unified observability layer: a
// hierarchical metrics registry (atomic counters, gauges, and log-bucketed
// histograms cheap enough for the interpreter's trap paths), one tracer
// recording point events and spans into a bounded ring with pluggable
// sinks, and
// machine-readable snapshot/delta export. It has no dependencies beyond
// the standard library and is shared by the DBT, migration engine, policy
// core, timing model, and both command-line drivers.
//
// Metric names are dot-separated hierarchies ("dbt.rat.x86.misses").
// Subsystems whose hot paths keep plain (non-atomic, single-goroutine)
// counters publish them through collector callbacks: a collector runs at
// Snapshot time and copies the raw fields into registry metrics, so the
// registry always agrees with the legacy accessors without adding a
// single atomic operation to the interpreter loop.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing (or collector-set) uint64 metric.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Set overwrites the value — used by collectors syncing a raw field.
func (c *Counter) Set(n uint64) { c.v.Store(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 metric.
type Gauge struct{ bits atomic.Uint64 }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucketing: a fixed-precision log sketch. Bucket i holds
// observations v with upperBound(i-1) < v <= upperBound(i), where
// upperBound(i) = histBase^(i-histZero). With base 1.02 every reported
// bucket bound is within 2% of any observation it covers, so tail
// quantiles (migration-cost p99 and worse) come out sharp instead of
// rounded to the nearest power of two. With histZero = 640 and 2048
// buckets the covered range is ~3.1e-6 .. 1.3e12, ample for microsecond
// latencies through cycle counts; observations outside it clamp to the
// extreme buckets, and observations at or below zero land in bucket 0.
const (
	histBase    = 1.02
	histBuckets = 2048
	histZero    = 640
)

// HistSchemaVersion identifies the histogram bucket layout; consumers
// that pin WriteProm output byte-for-byte should key their golden data
// on it. Version 1 was log2 buckets (64 buckets, zero offset 16);
// version 2 is the fixed-precision base-1.02 sketch.
const HistSchemaVersion = 2

// histInvLogBase converts a natural log into a base-histBase log.
var histInvLogBase = 1 / math.Log(histBase)

// Histogram is a fixed-precision log-bucketed distribution (a base-1.02
// sketch) with atomic updates.
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // math.Float64bits; valid only when count > 0
	maxBits atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

func bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	idx := histZero + int(math.Ceil(math.Log(v)*histInvLogBase))
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// BucketUpperBound returns the inclusive upper bound of bucket i.
func BucketUpperBound(i int) float64 { return math.Pow(histBase, float64(i-histZero)) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketOf(v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	// Min/max races with concurrent observers are benign: each CAS loop
	// only tightens the bound against the latest published extreme.
	if h.count.Add(1) == 1 {
		h.minBits.Store(math.Float64bits(v))
		h.maxBits.Store(math.Float64bits(v))
		return
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Snapshot returns a point-in-time view of the histogram. Safe from any
// goroutine (all fields are atomics); concurrent observers may land in
// or out of the view, as with any monitoring read.
func (h *Histogram) Snapshot() HistSnapshot {
	hs := HistSnapshot{Count: h.count.Load(), Sum: h.Sum()}
	if hs.Count > 0 {
		hs.Min = math.Float64frombits(h.minBits.Load())
		hs.Max = math.Float64frombits(h.maxBits.Load())
		hs.Mean = hs.Sum / float64(hs.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{UpperBound: BucketUpperBound(i), Count: n})
		}
	}
	sort.Slice(hs.Buckets, func(a, b int) bool {
		return hs.Buckets[a].UpperBound < hs.Buckets[b].UpperBound
	})
	return hs
}

// Bucket is one non-empty histogram bucket in a snapshot.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// HistSnapshot is a point-in-time view of one histogram.
type HistSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Min     float64  `json:"min"`
	Max     float64  `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns an approximate q-quantile (0 <= q <= 1) from the bucket
// upper bounds.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if seen >= rank {
			ub := b.UpperBound
			if ub > s.Max {
				ub = s.Max
			}
			if ub < s.Min {
				ub = s.Min
			}
			return ub
		}
	}
	return s.Max
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64       `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Delta returns the change from prev to s: counters and histogram
// counts/sums are subtracted (metrics absent from prev pass through);
// gauges and histogram min/max are instantaneous and keep s's values.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistSnapshot, len(s.Histograms)),
	}
	for k, v := range s.Counters {
		d.Counters[k] = v - prev.Counters[k]
	}
	for k, v := range s.Gauges {
		d.Gauges[k] = v
	}
	for k, h := range s.Histograms {
		p := prev.Histograms[k]
		dh := HistSnapshot{Count: h.Count - p.Count, Sum: h.Sum - p.Sum, Min: h.Min, Max: h.Max}
		if dh.Count > 0 {
			dh.Mean = dh.Sum / float64(dh.Count)
		}
		pb := make(map[float64]uint64, len(p.Buckets))
		for _, b := range p.Buckets {
			pb[b.UpperBound] = b.Count
		}
		for _, b := range h.Buckets {
			if n := b.Count - pb[b.UpperBound]; n > 0 {
				dh.Buckets = append(dh.Buckets, Bucket{UpperBound: b.UpperBound, Count: n})
			}
		}
		d.Histograms[k] = dh
	}
	return d
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Registry is a hierarchical, concurrency-safe metrics registry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	hists      map[string]*Histogram
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// checkKind panics when name is already registered under a different
// metric kind. Reusing a name across kinds silently forks the metric
// namespace (JSON snapshots keep separate maps but Prometheus exposition
// and dashboards key by name alone), so it fails loudly instead. The
// caller holds the write lock.
func (r *Registry) checkKind(name, want string) {
	var have string
	switch {
	case want != "counter" && r.counters[name] != nil:
		have = "counter"
	case want != "gauge" && r.gauges[name] != nil:
		have = "gauge"
	case want != "histogram" && r.hists[name] != nil:
		have = "histogram"
	default:
		return
	}
	panic(fmt.Sprintf("telemetry: metric %q already registered as a %s (requested %s)", name, have, want))
}

// Counter returns (creating on first use) the named counter. Requesting a
// name already held by a gauge or histogram panics.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		r.checkKind(name, "counter")
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge. Requesting a
// name already held by a counter or histogram panics.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		r.checkKind(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named histogram.
// Requesting a name already held by a counter or gauge panics.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		r.checkKind(name, "histogram")
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SeriesPoint is one labeled point of an experiment series: a row of a
// figure/table whose numeric columns should be exported as metrics.
type SeriesPoint struct {
	Label  string
	Fields map[string]float64
}

// PublishSeries flattens an ordered series into gauges under prefix: each
// point's field f becomes gauge "<prefix>.<label>.<f>" (or "<prefix>.<f>"
// for points with an empty label). Experiment drivers use it to make a
// figure's raw series exportable alongside the printed table.
func (r *Registry) PublishSeries(prefix string, points []SeriesPoint) {
	for _, p := range points {
		base := prefix
		if p.Label != "" {
			base += "." + p.Label
		}
		for f, v := range p.Fields {
			r.Gauge(base + "." + f).Set(v)
		}
	}
}

// RegisterCollector adds a callback invoked at the start of every
// Snapshot, letting subsystems with plain (single-goroutine) counters
// publish them lazily. Collectors must not call Snapshot.
func (r *Registry) RegisterCollector(f func()) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// Snapshot runs the collectors and returns a point-in-time copy of every
// metric. Collectors that read non-atomic subsystem fields make Snapshot
// safe only from the goroutine driving those subsystems (the same rule
// that already governs reading VM.Stats directly).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	cs := make([]func(), len(r.collectors))
	copy(cs, r.collectors)
	r.mu.RUnlock()
	for _, f := range cs {
		f()
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}
