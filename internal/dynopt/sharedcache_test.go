package dynopt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// tenantRun is what a tenant leaves behind that must match its solo run.
type tenantRun struct {
	stats  Stats
	events []telemetry.Event
	state  guest.State
	digest uint64
}

// runTenant runs bm to halt (or maxInsts) on a fresh System with the
// given compile workers and chaos, over cache when it is non-nil.
func runTenant(bm workload.Benchmark, maxInsts uint64, cache *CodeCache, chaos faultinject.Config, workers int) (tenantRun, error) {
	cfg := ConfigSMARQ(64)
	cfg.Compile.SharedCache = cache
	cfg.Compile.Workers = workers
	cfg.Chaos = chaos
	r, _, err := runRecorded(bm, maxInsts, cfg)
	return r, err
}

// matchSolo reports every way r differs from solo: stats, events,
// registers and memory.
func matchSolo(t *testing.T, who string, r, solo tenantRun) {
	t.Helper()
	if !reflect.DeepEqual(r.stats, solo.stats) {
		t.Errorf("%s: stats diverge from the solo run:\nfleet: %+v\nsolo:  %+v", who, r.stats, solo.stats)
	}
	if !reflect.DeepEqual(r.events, solo.events) {
		t.Errorf("%s: event trace diverges from the solo run (%d vs %d events)", who, len(r.events), len(solo.events))
	}
	if r.state != solo.state || r.digest != solo.digest {
		t.Errorf("%s: final registers or memory digest diverge from the solo run", who)
	}
}

// TestInlineFleetMatchesSolo runs concurrent tenants of one benchmark over
// one shared cache and an empty output store. Each tenant must end
// exactly as its solo run without a cache — stats, events, registers and
// memory:
//
//   - without chaos, 1 and 4 tenants whose compiles install at their
//     request (Workers 0). The process must run the pipeline once per
//     distinct key: a store leader settles its flight, a store hit
//     installs the stored output and a store follower waits for the
//     flight at its request.
//   - under host chaos (DefaultHost(7)), 4 tenants at Workers 0 and 1. A
//     tenant's drawn fault runs a private job, so no tenant is charged a
//     worker panic, a rejected result or a watchdog kill that a peer drew.
//
// Run it with -race.
func TestInlineFleetMatchesSolo(t *testing.T) {
	for _, name := range []string{"swim", "equake", "ammp"} {
		bm := mustBenchmark(t, name)
		for _, arm := range []struct {
			name    string
			chaos   faultinject.Config
			workers int
			tenants []int
		}{
			{"", faultinject.Config{}, 0, []int{1, 4}},
			{"hostchaos/workers0/", faultinject.DefaultHost(7), 0, []int{4}},
			{"hostchaos/workers1/", faultinject.DefaultHost(7), 1, []int{4}},
		} {
			solo, err := runTenant(bm, bm.MaxInsts, nil, arm.chaos, arm.workers)
			if err != nil {
				t.Fatal(err)
			}
			for _, tenants := range arm.tenants {
				t.Run(fmt.Sprintf("%s/%stenants%d", name, arm.name, tenants), func(t *testing.T) {
					var mu sync.Mutex
					compiled := map[compileKey]int{}
					swapPipeline(t, func(out *compileOutput) *compileOutput {
						mu.Lock()
						compiled[out.in.key]++
						mu.Unlock()
						return runCompilePipeline(out, nil)
					})

					cache := NewCodeCache()
					runs := make([]tenantRun, tenants)
					errs := make([]error, tenants)
					var wg sync.WaitGroup
					for i := range runs {
						wg.Add(1)
						go func(i int) {
							defer wg.Done()
							runs[i], errs[i] = runTenant(bm, bm.MaxInsts, cache, arm.chaos, arm.workers)
						}(i)
					}
					wg.Wait()
					for i, r := range runs {
						if errs[i] != nil {
							t.Fatalf("tenant %d: %v", i, errs[i])
						}
						matchSolo(t, fmt.Sprintf("tenant %d", i), r, solo)
					}
					st := cache.Stats()
					t.Logf("cache: %d lookups, %d hits, %d flight waits, %d compiles, %d entries",
						st.Lookups, st.Hits, st.FlightWaits, st.Compiles, st.Entries)
					if st.Entries == 0 {
						t.Errorf("the cache ended empty: %+v", st)
					}
					if arm.chaos.Enabled() {
						return // a drawn fault runs a private job
					}
					if st.Compiles != int64(len(compiled)) {
						t.Errorf("the cache counted %d compiles for %d distinct keys", st.Compiles, len(compiled))
					}
					for _, n := range compiled {
						if n != 1 {
							t.Errorf("a key compiled %d times fleet-wide, want once", n)
						}
					}
				})
			}
		}
	}
}

// TestChaosFleetHitMatchesSolo: under the default chaos mix and under
// host chaos, a System whose compiles hit a fleet cache that another
// System warmed ends exactly as its solo run without a cache — stats,
// events, registers and memory. A hit makes the request's draws like a
// miss, and a drawn host fault applies to a hit as to a miss, so fleet
// membership moves nothing.
func TestChaosFleetHitMatchesSolo(t *testing.T) {
	for _, arm := range []struct {
		name    string
		chaos   faultinject.Config
		workers int
	}{
		{"", faultinject.Default(7), 0},
		{"/hostchaos/workers0", faultinject.DefaultHost(7), 0},
		{"/hostchaos/workers1", faultinject.DefaultHost(7), 1},
	} {
		for _, name := range []string{"swim", "equake", "ammp"} {
			t.Run(name+arm.name, func(t *testing.T) {
				bm := mustBenchmark(t, name)
				solo, err := runTenant(bm, bm.MaxInsts, nil, arm.chaos, arm.workers)
				if err != nil {
					t.Fatal(err)
				}
				cache := NewCodeCache()
				if _, err := runTenant(bm, bm.MaxInsts, cache, arm.chaos, arm.workers); err != nil {
					t.Fatal(err)
				}
				warmed := cache.Stats()
				r, err := runTenant(bm, bm.MaxInsts, cache, arm.chaos, arm.workers)
				if err != nil {
					t.Fatal(err)
				}
				if hits := cache.Stats().Hits - warmed.Hits; hits == 0 {
					t.Fatal("no compile hit the warmed cache")
				}
				matchSolo(t, "warm-cache run", r, solo)
			})
		}
	}
}

// TestHostOrdinalsCountRequests: a region's host-fault ordinals count its
// compile requests. A fleet-cache hit advances them like the miss before
// it, so no later draw depends on whether a request hit. Only a queued
// request draws a hang.
func TestHostOrdinalsCountRequests(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			sys, e := installedSystem(t, workers)
			cache := NewCodeCache()
			sys.cache = cache.cache
			// Rates that never fire here, so every request installs.
			sys.inj = faultinject.New(faultinject.Config{Seed: 1,
				WorkerPanicRate: 1e-9, CompileHangRate: 1e-9, PoisonResultRate: 1e-9})
			for range 2 { // a miss, then a hit
				sys.recompileRegion(e, false)
				if !sys.installsAtRequest() {
					settle(t, sys, e)
				}
			}
			if c := cache.Stats(); c.Compiles != 1 || c.Hits != 1 {
				t.Fatalf("%d fleet-cache compiles and %d hits, want 1 and 1", c.Compiles, c.Hits)
			}
			want := faultinject.Ordinals{faultinject.WorkerPanic: 2, faultinject.PoisonResult: 2}
			if workers > 0 {
				want[faultinject.CompileHang] = 2
			}
			if got := *sys.disp[e].rec.draws; got != want {
				t.Errorf("ordinals %v after a miss and a hit, want %v", got, want)
			}
		})
	}
}
