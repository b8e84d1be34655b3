package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smarq/internal/codecache"
	"smarq/internal/health"
	"smarq/internal/telemetry"
)

// testServer wires a server over two tenants: tenant 0 running normally,
// tenant 1 done and degraded to the given health level.
func testServer(t1Level health.Level) (*Server, *telemetry.Registry) {
	fleet := telemetry.NewRegistry()
	fleet.Counter("codecache_lookups").Add(10)

	t0 := telemetry.NewRegistry()
	t0.Counter("dynopt_commits").Add(5)
	t1 := telemetry.NewRegistry()
	t1.Counter("dynopt_commits").Add(7)
	t1.Gauge("health_level").Set(int64(t1Level))

	views := []TenantView{
		{ID: 0, Bench: "swim", Metrics: t0},
		{ID: 1, Bench: "equake", Done: true, Metrics: t1,
			Stats: map[string]int64{"Commits": 7}},
	}
	return NewServer(Options{
		Fleet:   fleet,
		Tenants: func() []TenantView { return views },
		Cache: func() codecache.Stats {
			return codecache.Stats{
				Entries: 3, Lookups: 10, Hits: 6, Misses: 4,
				FlightWaits: 1, Compiles: 3, Evictions: 1,
			}
		},
	}), fleet
}

func get(t *testing.T, h http.Handler, target string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	return rec, rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(health.Normal)
	rec, body := get(t, s.Handler(), "/metrics")
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != telemetry.PrometheusContentType {
		t.Fatalf("code=%d content-type=%q", rec.Code, rec.Header().Get("Content-Type"))
	}
	for _, want := range []string{
		"codecache_lookups 10",                      // fleet registry, unlabeled
		`dynopt_commits{bench="swim",tenant="0"} 5`, // tenant scope labels
		`dynopt_commits{bench="equake",tenant="1"} 7`,
		`health_level{bench="equake",tenant="1"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// The JSON variant serves the fleet registry snapshot.
	rec, body = get(t, s.Handler(), "/metrics?format=json")
	if !strings.Contains(rec.Header().Get("Content-Type"), "application/json") ||
		!strings.Contains(body, `"codecache_lookups": 10`) {
		t.Errorf("/metrics?format=json: %s %s", rec.Header().Get("Content-Type"), body)
	}
}

func TestMetricsRefreshHook(t *testing.T) {
	calls := 0
	s := NewServer(Options{
		Fleet:   telemetry.NewRegistry(),
		Refresh: func() { calls++ },
	})
	get(t, s.Handler(), "/metrics")
	get(t, s.Handler(), "/metrics")
	if calls != 2 {
		t.Errorf("refresh hook ran %d times over 2 scrapes", calls)
	}
}

func TestHealthzEndpoint(t *testing.T) {
	s, _ := testServer(health.NoSpeculation)
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy fleet returned %d:\n%s", rec.Code, body)
	}
	var out struct {
		Status  string `json:"status"`
		Tenants []struct {
			Tenant int    `json:"tenant"`
			Level  string `json:"level"`
			Done   bool   `json:"done"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, body)
	}
	if out.Status != "ok" || len(out.Tenants) != 2 ||
		out.Tenants[0].Level != "normal" || out.Tenants[1].Level != "no-speculation" {
		t.Errorf("healthz payload: %+v", out)
	}

	// A tenant at compile-off or beyond degrades the endpoint to 503.
	s, _ = testServer(health.CompileOff)
	rec, body = get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(body, `"degraded"`) {
		t.Errorf("degraded fleet: code=%d body=%s", rec.Code, body)
	}
}

func TestCacheEndpoint(t *testing.T) {
	s, _ := testServer(health.Normal)
	rec, body := get(t, s.Handler(), "/debug/cache")
	if rec.Code != http.StatusOK {
		t.Fatalf("code=%d", rec.Code)
	}
	var out struct {
		Entries    int64   `json:"Entries"`
		Compiles   int64   `json:"Compiles"`
		HitRate    float64 `json:"hit_rate"`
		DedupeRate float64 `json:"dedupe_rate"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("cache debug is not JSON: %v\n%s", err, body)
	}
	if out.Entries != 3 || out.Compiles != 3 {
		t.Errorf("cache stats: %+v", out)
	}
	for _, gone := range []string{"Bytes", "FlightWaits", "Evictions", "evict_rate"} {
		if strings.Contains(body, `"`+gone+`"`) {
			t.Errorf("cache debug still reports %s:\n%s", gone, body)
		}
	}
	if out.HitRate != 0.6 || out.DedupeRate != 0.7 {
		t.Errorf("derived rates: hit=%v dedupe=%v, want 0.6/0.7", out.HitRate, out.DedupeRate)
	}
}

func TestTenantsEndpoint(t *testing.T) {
	s, _ := testServer(health.Normal)
	_, body := get(t, s.Handler(), "/debug/tenants")
	var out []struct {
		Tenant int                    `json:"tenant"`
		Bench  string                 `json:"bench"`
		Done   bool                   `json:"done"`
		Stats  map[string]interface{} `json:"stats"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("tenants debug is not JSON: %v\n%s", err, body)
	}
	if len(out) != 2 {
		t.Fatalf("got %d tenants, want 2", len(out))
	}
	// Running tenants expose no stats (the struct is being written by the
	// tenant goroutine); finished tenants do.
	if out[0].Done || out[0].Stats != nil {
		t.Errorf("running tenant leaked stats: %+v", out[0])
	}
	if !out[1].Done || out[1].Stats["Commits"] != float64(7) {
		t.Errorf("finished tenant: %+v", out[1])
	}
}

func TestEmptyOptions(t *testing.T) {
	// A server with no hooks must serve every endpoint without panicking.
	s := NewServer(Options{})
	for _, target := range []string{"/", "/metrics", "/healthz", "/debug/cache", "/debug/tenants"} {
		rec, _ := get(t, s.Handler(), target)
		if rec.Code >= 500 {
			t.Errorf("%s returned %d on an empty server", target, rec.Code)
		}
	}
	// No cache hook, no cache: not an all-zero snapshot.
	if rec, _ := get(t, s.Handler(), "/debug/cache"); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/cache returned %d without a Cache hook, want 404", rec.Code)
	}
}

// TestStartShutdown binds port 0, scrapes over a real socket, and shuts
// down — the lifecycle smarq-run -listen and RunFleet depend on.
func TestStartShutdown(t *testing.T) {
	s, _ := testServer(health.Normal)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	addr := s.Addr()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		t.Fatalf("Addr after port-0 bind: %q", addr)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "codecache_lookups 10") {
		t.Errorf("live scrape missing fleet series:\n%s", body)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", addr)); err == nil {
		t.Error("server still serving after Shutdown")
	}
	// Shutdown without Start is a no-op.
	if err := NewServer(Options{}).Shutdown(context.Background()); err != nil {
		t.Errorf("Shutdown before Start: %v", err)
	}
}

func TestPprofEndpoint(t *testing.T) {
	s, _ := testServer(health.Normal)
	rec, body := get(t, s.Handler(), "/debug/pprof/")
	if rec.Code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: code=%d", rec.Code)
	}
}
