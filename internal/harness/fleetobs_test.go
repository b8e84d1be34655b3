package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"smarq/internal/telemetry"
)

// TestFleetObsEndpoints runs a real fleet with the observability plane
// bound to an ephemeral port and scrapes every endpoint while RunFleet is
// executing (ObsReady fires after the server is live, before the run
// completes). Per-tenant label plumbing is proven with a marker counter
// registered through the Telemetry hook.
func TestFleetObsEndpoints(t *testing.T) {
	scrape := func(addr, path string) (int, string) {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	var liveAddr string
	fc := FleetConfig{
		Tenants:        2,
		Mix:            []string{"swim", "equake"},
		CompileWorkers: 2,
		MaxInsts:       40_000,
		Telemetry: func(tenant int, bench string) *telemetry.Telemetry {
			reg := telemetry.NewRegistry()
			reg.Counter("fleet_marker").Add(int64(tenant) + 1)
			return &telemetry.Telemetry{Metrics: reg}
		},
		Listen: "127.0.0.1:0",
		ObsReady: func(addr string) {
			liveAddr = addr

			// /metrics is curl-able mid-run: Prometheus content type,
			// fleet codecache series, and tenant/bench labels.
			code, body := scrape(addr, "/metrics")
			if code != http.StatusOK {
				t.Errorf("/metrics returned %d mid-run", code)
			}
			for _, want := range []string{
				"# TYPE codecache_lookups counter",
				`fleet_marker{bench="swim",tenant="0"} 1`,
				`fleet_marker{bench="equake",tenant="1"} 2`,
			} {
				if !strings.Contains(body, want) {
					t.Errorf("/metrics missing %q mid-run:\n%s", want, body)
				}
			}

			code, body = scrape(addr, "/healthz")
			if code != http.StatusOK || !strings.Contains(body, `"normal"`) {
				t.Errorf("/healthz mid-run: code=%d body=%s", code, body)
			}

			code, body = scrape(addr, "/debug/cache")
			if code != http.StatusOK || !strings.Contains(body, `"Compiles"`) {
				t.Errorf("/debug/cache mid-run: code=%d body=%s", code, body)
			}

			code, body = scrape(addr, "/debug/tenants")
			if code != http.StatusOK {
				t.Errorf("/debug/tenants mid-run: code=%d", code)
			}
			var tenants []struct {
				Bench string `json:"bench"`
			}
			if err := json.Unmarshal([]byte(body), &tenants); err != nil || len(tenants) != 2 {
				t.Errorf("/debug/tenants payload: %v %s", err, body)
			}
		},
	}
	res, err := RunFleet(fc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	if liveAddr == "" {
		t.Fatal("ObsReady never fired")
	}
	if res.Commits() == 0 {
		t.Fatal("fleet did no work")
	}
	// The server is shut down before RunFleet returns.
	if _, err := http.Get(fmt.Sprintf("http://%s/metrics", liveAddr)); err == nil {
		t.Error("obs server still serving after RunFleet returned")
	}
}

// TestFleetObsCounters checks the fleet-global view against the tenants'
// own books at end of run, by identities that hold at any interleaving:
// every enqueued compile request made exactly one shared-cache lookup
// (enqueueCompile), and every lookup that did not count a compile hit the
// table or joined a flight. The end-of-run PublishMetrics registry must
// agree with the result's cache snapshot.
func TestFleetObsCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	fc := FleetConfig{
		Tenants:        4,
		Mix:            []string{"swim", "equake"},
		CompileWorkers: 2,
		MaxInsts:       40_000,
		Metrics:        reg,
	}
	res, err := RunFleet(fc)
	if err != nil {
		t.Fatalf("RunFleet: %v", err)
	}
	var enqueued int64
	for i := range res.Tenants {
		enqueued += res.Tenants[i].Stats.Compile.Enqueued
	}
	c := &res.Cache
	if c.Lookups != enqueued {
		t.Errorf("the cache counted %d lookups, the tenants enqueued %d compiles", c.Lookups, enqueued)
	}
	if c.Hits+c.FlightWaits != c.Lookups-c.Compiles {
		t.Errorf("cache hits %d + flight waits %d != lookups %d - compiles %d", c.Hits, c.FlightWaits, c.Lookups, c.Compiles)
	}
	if c.Hits+c.Misses != c.Lookups {
		t.Errorf("cache hits %d + misses %d != lookups %d", c.Hits, c.Misses, c.Lookups)
	}
	for _, chk := range []struct {
		name string
		want int64
	}{
		{"codecache_lookups", c.Lookups},
		{"codecache_hits", c.Hits},
		{"codecache_flight_waits", c.FlightWaits},
		{"codecache_compiles", c.Compiles},
		{"codecache_evictions", c.Evictions},
	} {
		if got := reg.Counter(chk.name).Value(); got != chk.want {
			t.Errorf("published %s = %d, result snapshot says %d", chk.name, got, chk.want)
		}
	}
}
