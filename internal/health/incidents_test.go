package health

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

// fakeTenants is a canned obsrv.TenantSource for bundle-capture tests.
type fakeTenants struct{ list []obsrv.TenantInfo }

func (f *fakeTenants) TenantList() []obsrv.TenantInfo { return f.list }
func (f *fakeTenants) TenantSnapshot(id string) (obsrv.TenantInfo, telemetry.Snapshot, bool) {
	for _, ti := range f.list {
		if ti.ID == id {
			return ti, telemetry.Snapshot{}, true
		}
	}
	return obsrv.TenantInfo{}, telemetry.Snapshot{}, false
}

func testTenants() *fakeTenants {
	return &fakeTenants{list: []obsrv.TenantInfo{
		{ID: "t1", Workload: "libquantum", State: "running", Fields: map[string]float64{"respawns": 2, "steps": 100}},
		{ID: "t2", Workload: "bzip2", State: "running", Fields: map[string]float64{"respawns": 7, "steps": 50}},
		{ID: "t3", Workload: "gobmk", State: "done", Fields: map[string]float64{"respawns": 0, "steps": 900}},
		{ID: "t4", Workload: "mcf", State: "running", Fields: map[string]float64{"respawns": 2, "steps": 400}},
	}}
}

func TestIncidentBundleCapture(t *testing.T) {
	tel := telemetry.New()
	for i := 0; i < 5; i++ {
		tel.Emit(telemetry.Record{Name: telemetry.EvRespawn, Detail: "tenant"})
	}
	rec := NewRecorder(RecorderConfig{
		Events:     tel.Trace.Tail,
		Tenants:    testTenants(),
		OffenderK:  3,
		Profile:    func() (string, bool) { return "top table", true },
		HostConfig: map[string]any{"guests": 4},
	})
	h := NewHistory(16, 8)
	for i := 0; i < 5; i++ {
		h.Append(int64(i)*secNS, snap(map[string]uint64{"fleet.respawns": uint64(i * 100)}, nil))
	}
	rule := Rule{Name: "storm", Series: "fleet.respawns", Kind: KindRate,
		Threshold: 50, Window: 10 * time.Second, OffenderKey: "respawns"}

	inc := rec.Open(rule, 99, h, 4*secNS)

	if len(inc.Window) != 5 {
		t.Fatalf("window captured %d points, want 5", len(inc.Window))
	}
	if len(inc.Events) != 5 {
		t.Fatalf("captured %d events, want 5", len(inc.Events))
	}
	// Offenders: respawns desc, zero-score t3 excluded, K=3 keeps all
	// nonzero; ties (t1/t4 at 2) break by steps desc.
	if len(inc.Offenders) != 3 {
		t.Fatalf("offenders: %+v", inc.Offenders)
	}
	if inc.Offenders[0].ID != "t2" || inc.Offenders[1].ID != "t4" || inc.Offenders[2].ID != "t1" {
		t.Fatalf("offender order: %s %s %s", inc.Offenders[0].ID, inc.Offenders[1].ID, inc.Offenders[2].ID)
	}
	if inc.ProfileTop != "top table" {
		t.Fatalf("profile top: %q", inc.ProfileTop)
	}
	var cfg map[string]any
	if err := json.Unmarshal(inc.Config, &cfg); err != nil || cfg["guests"] != float64(4) {
		t.Fatalf("config: %s (%v)", inc.Config, err)
	}
}

func TestRecorderBounded(t *testing.T) {
	rec := NewRecorder(RecorderConfig{MaxIncidents: 4})
	h := NewHistory(4, 4)
	rule := Rule{Name: "r", Series: "g", Kind: KindThreshold, Threshold: 1}
	var open *Incident
	for i := 0; i < 10; i++ {
		inc := rec.Open(rule, float64(i), h, int64(i))
		if i == 7 {
			open = inc // leave #8 open
		} else {
			rec.Resolve(inc, int64(i)+1)
		}
	}
	opened, resolved, stored := rec.Counts()
	if opened != 10 || resolved != 9 || stored != 4 {
		t.Fatalf("counts: opened=%d resolved=%d stored=%d", opened, resolved, stored)
	}
	// Eviction drops oldest resolved first: the open incident survives even
	// though older stored incidents were evicted around it.
	if _, ok := rec.Incident(open.ID); !ok {
		t.Fatal("open incident was evicted")
	}
}

func TestRecorderArtifacts(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(RecorderConfig{Dir: dir, Tenants: testTenants()})
	h := NewHistory(8, 4)
	h.Append(0, snap(nil, map[string]float64{"g": 50}))
	rule := Rule{Name: "hot-cache", Series: "g", Kind: KindThreshold, Threshold: 1, OffenderKey: "respawns"}
	inc := rec.Open(rule, 50, h, secNS)
	rec.Resolve(inc, 3*secNS)
	if err := rec.DumpErr(); err != nil {
		t.Fatal(err)
	}

	// The per-incident bundle is rewritten at resolve.
	buf, err := os.ReadFile(filepath.Join(dir, "incident-001-hot-cache.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got Incident
	if err := json.Unmarshal(buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.ResolvedNS != 3*secNS || got.Rule.Name != "hot-cache" || len(got.Offenders) == 0 {
		t.Fatalf("bundle: %+v", got)
	}

	// incidents.jsonl appends one record per transition: open + resolve.
	lines, err := os.ReadFile(filepath.Join(dir, "incidents.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	recs := strings.Split(strings.TrimSpace(string(lines)), "\n")
	if len(recs) != 2 {
		t.Fatalf("jsonl has %d records, want 2", len(recs))
	}
	var first, last Incident
	if err := json.Unmarshal([]byte(recs[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(recs[1]), &last); err != nil {
		t.Fatal(err)
	}
	if first.ResolvedNS != 0 || last.ResolvedNS != 3*secNS {
		t.Fatalf("jsonl transitions: open=%+v resolve=%+v", first, last)
	}
}

func TestIncidentEventsEmitted(t *testing.T) {
	var events []telemetry.Record
	rec := NewRecorder(RecorderConfig{Emit: func(e telemetry.Record) { events = append(events, e) }})
	h := NewHistory(4, 4)
	rule := Rule{Name: "r", Series: "g", Kind: KindThreshold, Threshold: 1}
	inc := rec.Open(rule, 5, h, 0)
	rec.Resolve(inc, secNS)
	if len(events) != 2 {
		t.Fatalf("emitted %d events, want 2", len(events))
	}
	if !strings.Contains(events[0].Detail, "incident-open #1 r") ||
		!strings.Contains(events[1].Detail, "incident-resolve #1 r") {
		t.Fatalf("event details: %q / %q", events[0].Detail, events[1].Detail)
	}
}

func TestIncidentHandler(t *testing.T) {
	rec := NewRecorder(RecorderConfig{Tenants: testTenants()})
	h := NewHistory(8, 4)
	h.Append(0, snap(nil, map[string]float64{"g": 50}))
	rule := Rule{Name: "r", Series: "g", Kind: KindThreshold, Threshold: 1, OffenderKey: "respawns"}
	rec.Open(rule, 50, h, secNS)
	srv := httptest.NewServer(rec.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := json.NewDecoder(resp.Body).Token(); err == nil {
			// re-read fully below
		}
		return resp.StatusCode, b.String()
	}

	resp, err := srv.Client().Get(srv.URL + "/incidents")
	if err != nil {
		t.Fatal(err)
	}
	var list IncidentList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Open != 1 || len(list.Incidents) != 1 || list.Incidents[0].State != "open" {
		t.Fatalf("list: %+v", list)
	}
	if list.Incidents[0].Offenders == 0 {
		t.Fatal("summary lost the offender count")
	}

	resp, err = srv.Client().Get(srv.URL + "/incidents/1")
	if err != nil {
		t.Fatal(err)
	}
	var inc Incident
	if err := json.NewDecoder(resp.Body).Decode(&inc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if inc.ID != 1 || len(inc.Offenders) == 0 || len(inc.Window) == 0 {
		t.Fatalf("bundle: %+v", inc)
	}

	if code, _ := get("/incidents/99"); code != 404 {
		t.Fatalf("unknown id: %d, want 404", code)
	}
	if code, _ := get("/incidents/xyz"); code != 400 {
		t.Fatalf("bad id: %d, want 400", code)
	}
}

func TestMonitorSelfTelemetry(t *testing.T) {
	tel := telemetry.New()
	mon := NewMonitor(Config{
		Rules:     []Rule{{Name: "r", Series: "g", Kind: KindThreshold, Threshold: 10}},
		Telemetry: tel,
	})
	mon.Observe(0, snap(nil, map[string]float64{"g": 50}))
	if mon.OpenIncidents() != 1 {
		t.Fatalf("open=%d, want 1", mon.OpenIncidents())
	}
	s := tel.Snapshot()
	if s.Counters["health.incidents.opened"] != 1 || s.Gauges["health.incidents.open"] != 1 {
		t.Fatalf("self telemetry: %+v", s.Counters)
	}
	if s.Counters["health.samples"] != 1 {
		t.Fatalf("health.samples=%d", s.Counters["health.samples"])
	}
	// The incident-open event reached the shared tracer.
	found := false
	for _, e := range tel.Trace.Tail(0) {
		if strings.Contains(e.Detail, "incident-open") {
			found = true
		}
	}
	if !found {
		t.Fatal("incident-open event not emitted to telemetry")
	}
}

// TestIncidentBundleInterleavesSpans: with span recording on, the one
// trace tap hands the bundle spans and points together, in stream order.
func TestIncidentBundleInterleavesSpans(t *testing.T) {
	tel := telemetry.New()
	tel.EnableSpans(0)
	sp := tel.StartSpan("fleet", "respawn")
	tel.Emit(telemetry.Record{Name: telemetry.EvRespawn})
	sp.End()
	rec := NewRecorder(RecorderConfig{Events: tel.Trace.Tail})
	inc := rec.Open(Rule{Name: "r", Series: "g", Kind: KindThreshold, Threshold: 1}, 5, NewHistory(4, 4), secNS)
	var kinds []string
	for _, r := range inc.Events {
		kinds = append(kinds, r.Kind)
	}
	if strings.Join(kinds, ",") != "event,span" {
		t.Fatalf("bundle record kinds = %v, want [event span]", kinds)
	}
}
