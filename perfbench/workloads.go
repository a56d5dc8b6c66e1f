package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// pinnedSeed is hipstr-fleet's default seed. paper-eval's inputs are the
// paper's eight profiles whatever the seed: mixing the seed into the
// profile seeds changes the generated programs' work by a third or more
// between seeds, and some mixes generate programs that fault (README.md).
const pinnedSeed = 1

// workloadSpec describes one benchmark workload. fleet is nil for the
// closed-batch paper evaluation.
type workloadSpec struct {
	name  string
	fleet *fleetMix
}

// fleetMix is an open-loop tenant mix: tenant i runs workloads[i%len],
// arrivals are Poisson at rate tenants/s in the fixed-rate phase.
type fleetMix struct {
	workloads  []string
	rate       float64
	quota      uint64 // steps per life
	slice      uint64 // steps per dispatch (0 = host default)
	attackProb float64
}

var workloads = map[string]*workloadSpec{
	"paper-eval": {name: "paper-eval"},
	// Long tenants: execution and block-cache refill dominate, forks are
	// rare, the timing model is absent. 40/s is about a fifth of the
	// back-to-back capacity on a 2-core host.
	"fleet-steady": {name: "fleet-steady", fleet: &fleetMix{
		workloads: []string{"libquantum", "bzip2"},
		rate:      40,
		quota:     200_000,
	}},
	// Short tenants with injected breaches: admission forks, shared-unit
	// installs, copy-on-write breaks and respawns dominate.
	"fleet-churn": {name: "fleet-churn", fleet: &fleetMix{
		workloads:  []string{"httpd"},
		rate:       150,
		quota:      5_000,
		slice:      5_000,
		attackProb: 0.2,
	}},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// plan sizes one run from its time budget.
type plan struct {
	reps   int // timed repetitions, each in a fresh process
	setups int // set-up samples in total (reps plus set-up-only children)
	nOpen  int // fleet: tenants offered in each open-loop phase
	nDrain int // fleet: tenants in each back-to-back drain
}

// openShare is the part of the budget spent in open-loop phases; the
// drains, set-ups and the reference run take roughly the rest.
const openShare = 0.8

func (w *workloadSpec) plan(seconds int) plan {
	if w.fleet == nil {
		// One full evaluation takes about 8 s on a 2-core host.
		return plan{reps: max(2, int(math.Round(float64(seconds)/8))), setups: setupSamples}
	}
	const reps = 3
	open := float64(seconds) * openShare / reps
	n := max(20, int(math.Round(w.fleet.rate*open)))
	return plan{reps: reps, setups: setupSamples, nOpen: n, nDrain: n / 2}
}

// setupSamples is how many fresh-process set-ups a run takes the median of.
const setupSamples = 9

// refEntry is one recorded reference. paper-eval records a SHA-256 per
// experiment's printed table and one over all tables (equal to
// hipstr-bench's output without its trailing "done." line); the fleet
// workloads record a digest over (tenant ID, Tenant.Digest()) in ID order
// for the open-loop phase and the drain, valid for the tenant counts
// recorded beside them.
type refEntry struct {
	Tables      string            `json:"tables,omitempty"`
	Experiments map[string]string `json:"experiments,omitempty"`
	NOpen       int               `json:"n_open,omitempty"`
	NDrain      int               `json:"n_drain,omitempty"`
	Open        string            `json:"open,omitempty"`
	Drain       string            `json:"drain,omitempty"`
}

//go:embed reference.json
var referenceJSON []byte

// reference returns the recorded entry for (workload, seed), if any. A
// fleet entry only applies to the tenant counts it was recorded for;
// paper-eval's inputs do not depend on the seed, so its entry is recorded
// once, under pinnedSeed.
func reference(w *workloadSpec, seed int64, p plan) (refEntry, bool) {
	var all map[string]map[string]refEntry
	if err := json.Unmarshal(referenceJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: reference.json: %v", err))
	}
	if w.fleet == nil {
		seed = pinnedSeed
	}
	e, ok := all[w.name][strconv.FormatInt(seed, 10)]
	if !ok {
		return refEntry{}, false
	}
	if w.fleet != nil && (e.NOpen != p.nOpen || e.NDrain != p.nDrain) {
		return refEntry{}, false
	}
	return e, true
}
