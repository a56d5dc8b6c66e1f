package obsrv_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestReadyzGatesOnReadiness: /healthz is pure liveness (200 always),
// /readyz answers 503 with the detail until Ready flips true — the
// split that lets a load balancer hold traffic during prototype warmup
// without ever thinking the process is dead.
func TestReadyzGatesOnReadiness(t *testing.T) {
	tel := telemetry.New()
	ready := false
	opts := testOptions(tel)
	opts.Ready = func() (bool, string) {
		if !ready {
			return false, "fleet prototypes still warming"
		}
		return true, "fleet prototypes warmed"
	}
	h := obsrv.NewHandler(opts)
	ts := httptest.NewServer(h)
	defer ts.Close()

	code, body := getBody(t, ts.URL+"/readyz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "still warming") {
		t.Fatalf("/readyz before ready = %d %q", code, body)
	}
	// Liveness is unaffected by not-ready.
	if code, body := getBody(t, ts.URL+"/healthz"); code != 200 || !strings.HasPrefix(body, "ok") {
		t.Fatalf("/healthz while not ready = %d %q", code, body)
	}

	ready = true
	code, body = getBody(t, ts.URL+"/readyz")
	if code != 200 || !strings.Contains(body, "warmed") {
		t.Fatalf("/readyz after ready = %d %q", code, body)
	}
}

// TestReadyzDefaultAlwaysReady: without a Ready hook (hipstr-run, tests),
// /readyz degenerates to liveness.
func TestReadyzDefaultAlwaysReady(t *testing.T) {
	tel := telemetry.New()
	h := obsrv.NewHandler(testOptions(tel))
	ts := httptest.NewServer(h)
	defer ts.Close()
	if code, body := getBody(t, ts.URL+"/readyz"); code != 200 || !strings.HasPrefix(body, "ready") {
		t.Fatalf("/readyz without hook = %d %q", code, body)
	}
}

// TestHealthEndpointsWithoutEngine: /history and /incidents answer 404
// with a hint when no health engine is attached, rather than plumbing
// empty handlers.
func TestHealthEndpointsWithoutEngine(t *testing.T) {
	tel := telemetry.New()
	h := obsrv.NewHandler(testOptions(tel))
	ts := httptest.NewServer(h)
	defer ts.Close()
	for _, path := range []string{"/history", "/incidents", "/incidents/1"} {
		if code, body := getBody(t, ts.URL+path); code != http.StatusNotFound ||
			!strings.Contains(body, "health engine not attached") {
			t.Fatalf("%s without engine = %d %q", path, code, body)
		}
	}
}

// TestHealthEndpointsDelegate: attached History/Incidents handlers
// receive their routes with the path intact (the incident handler routes
// on /incidents/{id} itself).
func TestHealthEndpointsDelegate(t *testing.T) {
	tel := telemetry.New()
	opts := testOptions(tel)
	opts.History = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "history:"+r.URL.RawQuery)
	})
	opts.Incidents = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "incidents:"+r.URL.Path)
	})
	h := obsrv.NewHandler(opts)
	ts := httptest.NewServer(h)
	defer ts.Close()

	if _, body := getBody(t, ts.URL+"/history?series=a,b"); body != "history:series=a,b" {
		t.Fatalf("/history delegate = %q", body)
	}
	if _, body := getBody(t, ts.URL+"/incidents"); body != "incidents:/incidents" {
		t.Fatalf("/incidents delegate = %q", body)
	}
	if _, body := getBody(t, ts.URL+"/incidents/7"); body != "incidents:/incidents/7" {
		t.Fatalf("/incidents/7 delegate = %q", body)
	}
}
