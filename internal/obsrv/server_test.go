package obsrv_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

func testOptions(tel *telemetry.Telemetry) obsrv.Options {
	return obsrv.Options{
		Snapshot: func() (telemetry.Snapshot, bool) { return tel.Snapshot(), true },
		Trace:    tel.Trace,
	}
}

func TestEndpoints(t *testing.T) {
	tel := telemetry.New()
	tel.Reg.Counter("dbt.translations.x86").Add(42)
	tel.Reg.Gauge("perf.x86.cpi").Set(1.5)
	h := obsrv.NewHandler(testOptions(tel))
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/healthz"); code != 200 || !strings.HasPrefix(body, "ok\n") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if !strings.Contains(body, "dbt_translations_x86 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "# TYPE dbt_translations_x86 counter") {
		t.Errorf("/metrics missing TYPE line:\n%s", body)
	}
	code, body = get("/stats.json")
	if code != 200 || !strings.Contains(body, `"dbt.translations.x86": 42`) {
		t.Errorf("/stats.json = %d:\n%s", code, body)
	}
	if code, _ := get("/profile"); code != http.StatusNotFound {
		t.Errorf("/profile without profiler = %d, want 404", code)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}
	if code, _ := get("/nosuch"); code != http.StatusNotFound {
		t.Errorf("/nosuch = %d", code)
	}
}

// fakeTenants is a minimal TenantSource: two fixed guests, one with a
// private registry carrying a single counter.
type fakeTenants struct{ reg *telemetry.Registry }

func (f *fakeTenants) TenantList() []obsrv.TenantInfo {
	return []obsrv.TenantInfo{
		{ID: "1", Workload: "libquantum", State: "done",
			Fields: map[string]float64{"steps": 40000, "respawns": 1}},
		{ID: "2", Workload: "httpd", State: "running"},
	}
}

func (f *fakeTenants) TenantSnapshot(id string) (obsrv.TenantInfo, telemetry.Snapshot, bool) {
	if id != "1" {
		return obsrv.TenantInfo{}, telemetry.Snapshot{}, false
	}
	return f.TenantList()[0], f.reg.Snapshot(), true
}

func TestTenantEndpoints(t *testing.T) {
	tel := telemetry.New()
	src := &fakeTenants{reg: telemetry.NewRegistry()}
	src.reg.Counter("dbt.translations.x86").Add(7)
	opts := testOptions(tel)
	opts.Tenants = src
	h := obsrv.NewHandler(opts)
	ts := httptest.NewServer(h)
	defer ts.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/tenants")
	if code != 200 {
		t.Fatalf("/tenants = %d", code)
	}
	if !strings.Contains(body, `"count": 2`) && !strings.Contains(body, `"count":2`) {
		t.Errorf("/tenants missing count:\n%s", body)
	}
	for _, want := range []string{`"libquantum"`, `"httpd"`, `"running"`, `"steps"`} {
		if !strings.Contains(body, want) {
			t.Errorf("/tenants missing %s:\n%s", want, body)
		}
	}
	code, body = get("/tenants/1")
	if code != 200 {
		t.Fatalf("/tenants/1 = %d", code)
	}
	if !strings.Contains(body, `"dbt.translations.x86":7`) {
		t.Errorf("/tenants/1 missing private counter:\n%s", body)
	}
	if !strings.Contains(body, `"respawns"`) {
		t.Errorf("/tenants/1 missing tenant fields:\n%s", body)
	}
	if code, _ := get("/tenants/99"); code != http.StatusNotFound {
		t.Errorf("/tenants/99 = %d, want 404", code)
	}

	// Without a source the drill-down is absent, not empty.
	h2 := obsrv.NewHandler(testOptions(tel))
	ts2 := httptest.NewServer(h2)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/tenants")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/tenants without source = %d, want 404", resp.StatusCode)
	}
}

func TestMetricsBeforeFirstPublish(t *testing.T) {
	mon := health.NewMonitor(health.Config{})
	h := obsrv.NewHandler(obsrv.Options{Snapshot: mon.Latest})
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish /metrics = %d, want 503", resp.StatusCode)
	}
	mon.ObserveNow(telemetry.NewRegistry().Snapshot())
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("post-publish /metrics = %d", resp.StatusCode)
	}
}

// gatedWriter is a streaming ResponseWriter whose Flush blocks until
// gate is closed, standing in for a client that stops reading.
type gatedWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	hdr     http.Header
	flushed chan struct{} // signalled (non-blocking) at every Flush
	gate    chan struct{}
}

func (w *gatedWriter) Header() http.Header { return w.hdr }
func (w *gatedWriter) WriteHeader(int)     {}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *gatedWriter) Flush() {
	select {
	case w.flushed <- struct{}{}:
	default:
	}
	<-w.gate
}

func (w *gatedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSSEDropOldest pins the never-block contract: while a stalled
// /events reader sits on its first flush, recording goes on unhindered
// and the tracer's ring laps the reader. Once the reader resumes it gets
// the retained records, oldest first, after a comment reporting how many
// it lost.
func TestSSEDropOldest(t *testing.T) {
	tr := telemetry.NewTracer(4)
	tr.Emit(telemetry.Record{Name: telemetry.EvTranslate})
	tr.Emit(telemetry.Record{Name: telemetry.EvTranslate})
	h := obsrv.NewHandler(obsrv.Options{Trace: tr})

	w := &gatedWriter{hdr: http.Header{}, flushed: make(chan struct{}, 1), gate: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/events", nil).WithContext(ctx)
	served := make(chan struct{})
	go func() {
		h.ServeHTTP(w, req)
		close(served)
	}()
	defer func() { // release a stalled handler on failure paths too
		cancel()
		select {
		case <-w.gate:
		default:
			close(w.gate)
		}
		<-served
	}()
	select {
	case <-w.flushed: // backlog 1, 2 written; the reader is now stalled
	case <-time.After(5 * time.Second):
		t.Fatal("backlog never flushed")
	}

	emitted := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ { // records 3..12; the ring keeps 9..12
			tr.Emit(telemetry.Record{Name: telemetry.EvTranslate})
		}
		close(emitted)
	}()
	select {
	case <-emitted:
	case <-time.After(5 * time.Second):
		t.Fatal("recording blocked on a stalled /events reader")
	}

	close(w.gate)
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(w.String(), "id: 12\n") {
		if time.Now().After(deadline) {
			t.Fatalf("stream never caught up:\n%s", w.String())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-served

	var lines []string
	for _, l := range strings.Split(w.String(), "\n") {
		if strings.HasPrefix(l, "id: ") || strings.HasPrefix(l, ": dropped") {
			lines = append(lines, l)
		}
	}
	want := "[id: 1 id: 2 : dropped 6 events (slow consumer) id: 9 id: 10 id: 11 id: 12]"
	if got := fmt.Sprint(lines); got != want {
		t.Errorf("stream = %s, want %s", got, want)
	}
}

// TestSSEStream runs a real SSE request end to end: ring backlog first,
// then live events, ordered by sequence number without duplicates.
func TestSSEStream(t *testing.T) {
	tel := telemetry.New()
	tel.Trace.Emit(telemetry.Record{Name: telemetry.EvTranslate, ISA: "x86", Addr: 0x1000})
	tel.Trace.Emit(telemetry.Record{Name: telemetry.EvRATMiss, ISA: "x86"})
	h := obsrv.NewHandler(testOptions(tel))
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	// A live event emitted after connect must also arrive.
	tel.Trace.Emit(telemetry.Record{Name: telemetry.EvMigrateEnd, ISA: "arm", CostUS: 9})

	sc := bufio.NewScanner(resp.Body)
	var ids []string
	for sc.Scan() && len(ids) < 3 {
		if strings.HasPrefix(sc.Text(), "id: ") {
			ids = append(ids, strings.TrimPrefix(sc.Text(), "id: "))
		}
	}
	if fmt.Sprint(ids) != "[1 2 3]" {
		t.Errorf("SSE ids = %v, want [1 2 3]", ids)
	}
}

// TestServerShutdown checks New/Serve/Shutdown round-trips and that an
// open SSE stream does not wedge graceful shutdown.
func TestServerShutdown(t *testing.T) {
	tel := telemetry.New()
	srv, err := obsrv.New("127.0.0.1:0", testOptions(tel))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// Hold an SSE stream open across the shutdown.
	sseResp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
}
