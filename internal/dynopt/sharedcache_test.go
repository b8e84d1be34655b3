package dynopt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smarq/internal/codecache"
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

// runTenant runs bm to halt (or maxInsts) on a fresh System with compiles
// that install at their request and the given chaos, over cache when it
// is non-nil.
func runTenant(bm workload.Benchmark, maxInsts uint64, cache *CodeCache, chaos faultinject.Config) (tenantRun, error) {
	cfg := ConfigSMARQ(64)
	cfg.Compile.SharedCache = cache
	cfg.Chaos = chaos
	r, _, err := runRecorded(bm, maxInsts, cfg)
	r.stats.Compile.MemoHits, r.stats.Compile.MemoMisses, r.stats.Compile.DedupeWaits = 0, 0, 0
	return r, err
}

// TestInlineFleetMatchesSolo runs 1 and 4 concurrent tenants of one
// benchmark over one shared cache with compiles that install at their
// request (Workers 0). Each tenant must end exactly as its solo run
// without a cache — stats (but the hit/miss/dedupe split), events,
// registers and memory — and the fleet must run the pipeline once per
// distinct key: an inline leader settles its flight, an inline hit
// installs the cached output and an inline follower waits for the
// flight at its request. Run it with -race.
func TestInlineFleetMatchesSolo(t *testing.T) {
	for _, name := range []string{"swim", "equake", "ammp"} {
		bm, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		solo, err := runTenant(bm, bm.MaxInsts, nil, faultinject.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tenants := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/tenants%d", name, tenants), func(t *testing.T) {
				var mu sync.Mutex
				compiled := map[compileKey]int{}
				swapPipeline(t, func(out *compileOutput) *compileOutput {
					mu.Lock()
					compiled[out.in.key]++
					mu.Unlock()
					return runCompilePipeline(out, nil)
				})

				cache := NewCodeCache(codecache.Options{})
				runs := make([]tenantRun, tenants)
				errs := make([]error, tenants)
				var wg sync.WaitGroup
				for i := range runs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						runs[i], errs[i] = runTenant(bm, bm.MaxInsts, cache, faultinject.Config{})
					}(i)
				}
				wg.Wait()
				for i, r := range runs {
					if errs[i] != nil {
						t.Fatalf("tenant %d: %v", i, errs[i])
					}
					if !reflect.DeepEqual(r.stats, solo.stats) {
						t.Errorf("tenant %d: stats diverge from the solo run:\nfleet: %+v\nsolo:  %+v", i, r.stats, solo.stats)
					}
					if !reflect.DeepEqual(r.events, solo.events) {
						t.Errorf("tenant %d: event trace diverges from the solo run (%d vs %d events)", i, len(r.events), len(solo.events))
					}
					if r.state != solo.state || r.digest != solo.digest {
						t.Errorf("tenant %d: final registers or memory digest diverge from the solo run", i)
					}
				}
				st := cache.Stats()
				t.Logf("cache: %d lookups, %d hits, %d flight waits, %d compiles, %d entries",
					st.Lookups, st.Hits, st.FlightWaits, st.Compiles, st.Entries)
				if st.Entries == 0 {
					t.Errorf("the cache ended empty: %+v", st)
				}
				if st.Compiles != int64(len(compiled)) {
					t.Errorf("the cache elected %d leaders for %d distinct keys", st.Compiles, len(compiled))
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

// TestChaosFleetHitMatchesSolo: under the default chaos mix, a System
// whose compiles hit a fleet cache that another System warmed ends
// exactly as its solo run without a cache — stats (but the hit/miss/dedupe
// split), events, registers and memory. A hit runs no job, yet it makes
// the request's draws like a fresh compile, so no later fault moves.
func TestChaosFleetHitMatchesSolo(t *testing.T) {
	chaos := faultinject.Default(7)
	for _, name := range []string{"swim", "equake", "ammp"} {
		t.Run(name, func(t *testing.T) {
			bm := mustBenchmark(t, name)
			solo, err := runTenant(bm, bm.MaxInsts, nil, chaos)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewCodeCache(codecache.Options{})
			if _, err := runTenant(bm, bm.MaxInsts, cache, chaos); err != nil {
				t.Fatal(err)
			}
			warmed := cache.Stats()
			r, err := runTenant(bm, bm.MaxInsts, cache, chaos)
			if err != nil {
				t.Fatal(err)
			}
			if hits := cache.Stats().Hits - warmed.Hits; hits == 0 {
				t.Fatal("no compile hit the warmed cache")
			}
			if !reflect.DeepEqual(r.stats, solo.stats) {
				t.Errorf("stats diverge from the solo run:\nfleet: %+v\nsolo:  %+v", r.stats, solo.stats)
			}
			if !reflect.DeepEqual(r.events, solo.events) {
				t.Errorf("event trace diverges from the solo run (%d vs %d events)", len(r.events), len(solo.events))
			}
			if r.state != solo.state || r.digest != solo.digest {
				t.Error("final registers or memory digest diverge from the solo run")
			}
		})
	}
}

// TestHostOrdinalsCountRequests: a region's host-fault ordinals count its
// compile requests. A fleet-cache hit runs no job, yet advances them like
// the miss that ran one, so no later draw depends on whether a request
// hit. Only a queued request draws a hang.
func TestHostOrdinalsCountRequests(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			sys, e := installedSystem(t, workers)
			sys.cache = NewCodeCache(codecache.Options{}).cache
			// Rates that never fire here, so every request installs.
			sys.inj = faultinject.New(faultinject.Config{Seed: 1,
				WorkerPanicRate: 1e-9, CompileHangRate: 1e-9, PoisonResultRate: 1e-9})
			for range 2 { // a miss that leads a flight, then a hit
				sys.recompileRegion(e, false)
				if !sys.installsAtRequest() {
					settle(t, sys, e)
				}
			}
			if c := sys.Stats.Compile; c.MemoMisses != 1 || c.MemoHits != 1 {
				t.Fatalf("%d fleet-cache misses and %d hits, want 1 and 1", c.MemoMisses, c.MemoHits)
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
