package dynopt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smarq/internal/codecache"
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
// that install at their request, over cache when it is non-nil.
func runTenant(bm workload.Benchmark, maxInsts uint64, cache *CodeCache) (tenantRun, error) {
	sink := &captureSink{}
	cfg := ConfigSMARQ(64)
	cfg.Compile.SharedCache = cache
	cfg.Telemetry = &telemetry.Telemetry{Events: telemetry.NewTracer(0, sink)}
	sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	if _, err := sys.Run(maxInsts); err != nil {
		return tenantRun{}, err
	}
	if err := cfg.Telemetry.Tracer().Flush(); err != nil {
		return tenantRun{}, err
	}
	st := sys.Stats
	st.Compile.MemoHits, st.Compile.MemoMisses, st.Compile.DedupeWaits = 0, 0, 0
	return tenantRun{stats: st, events: sink.events, state: *sys.State(), digest: sys.Mem().Digest()}, nil
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
		solo, err := runTenant(bm, bm.MaxInsts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, tenants := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/tenants%d", name, tenants), func(t *testing.T) {
				var mu sync.Mutex
				compiled := map[compileKey]int{}
				saved := compilePipeline
				compilePipeline = func(out *compileOutput) *compileOutput {
					mu.Lock()
					compiled[out.in.key]++
					mu.Unlock()
					return runCompilePipeline(out, nil)
				}
				defer func() { compilePipeline = saved }()

				cache := NewCodeCache(codecache.Options{})
				runs := make([]tenantRun, tenants)
				errs := make([]error, tenants)
				var wg sync.WaitGroup
				for i := range runs {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						runs[i], errs[i] = runTenant(bm, bm.MaxInsts, cache)
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
