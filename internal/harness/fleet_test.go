package harness

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"smarq/internal/codecache"
	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// captureSink buffers every drained event in memory for the determinism
// diff.
type captureSink struct {
	events []telemetry.Event
}

func (s *captureSink) WriteEvents(evs []telemetry.Event) error {
	s.events = append(s.events, evs...)
	return nil
}

func (s *captureSink) Close() error { return nil }

// TestFleetTenantDeterminism is the fleet's correctness gate: at every
// tenant count, with compiles installed at their request (workers 0) and
// queued (workers 1), each tenant's stats, event trace, final guest
// registers and guest memory must be byte-identical to a solo run of the
// same benchmark — the shared compile pool and cache may only change host
// wall time and the cache's own counters. Run it with -race: the tenants
// genuinely share the pool and cache concurrently.
func TestFleetTenantDeterminism(t *testing.T) {
	mix := []string{"swim", "equake", "ammp"}
	const maxInsts = 60_000

	type soloKey struct {
		bench   string
		workers int
	}
	type soloRun struct {
		tenant FleetTenant
		events []telemetry.Event
	}
	solos := make(map[soloKey]*soloRun)
	soloFor := func(t *testing.T, bench string, workers int) *soloRun {
		key := soloKey{bench, workers}
		if s, ok := solos[key]; ok {
			return s
		}
		sink := &captureSink{}
		res, err := RunFleet(FleetConfig{
			Tenants:        1,
			Mix:            []string{bench},
			CompileWorkers: workers,
			MaxInsts:       maxInsts,
			Telemetry: func(int, string) *telemetry.Telemetry {
				return &telemetry.Telemetry{Events: telemetry.NewTracer(0, sink)}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := &soloRun{tenant: res.Tenants[0], events: sink.events}
		solos[key] = s
		return s
	}

	for _, tenants := range []int{1, 4, 8} {
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("tenants%d/workers%d", tenants, workers), func(t *testing.T) {
				sinks := make([]*captureSink, tenants)
				res, err := RunFleet(FleetConfig{
					Tenants:        tenants,
					Mix:            mix,
					CompileWorkers: workers,
					MaxInsts:       maxInsts,
					Telemetry: func(tenant int, _ string) *telemetry.Telemetry {
						sinks[tenant] = &captureSink{}
						return &telemetry.Telemetry{Events: telemetry.NewTracer(0, sinks[tenant])}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range res.Tenants {
					ft := &res.Tenants[i]
					solo := soloFor(t, ft.Bench, workers)
					if ft.Halted != solo.tenant.Halted {
						t.Errorf("tenant %d (%s): halted=%v, solo halted=%v", ft.Tenant, ft.Bench, ft.Halted, solo.tenant.Halted)
					}
					if !reflect.DeepEqual(ft.Stats, solo.tenant.Stats) {
						t.Errorf("tenant %d (%s): stats diverge from solo run:\nfleet: %+v\nsolo:  %+v", ft.Tenant, ft.Bench, ft.Stats, solo.tenant.Stats)
					}
					if ft.State != solo.tenant.State {
						t.Errorf("tenant %d (%s): final guest registers diverge from solo run", ft.Tenant, ft.Bench)
					}
					if ft.MemDigest != solo.tenant.MemDigest {
						t.Errorf("tenant %d (%s): guest memory digest %#x, solo %#x", ft.Tenant, ft.Bench, ft.MemDigest, solo.tenant.MemDigest)
					}
					if evs := sinks[i].events; !reflect.DeepEqual(evs, solo.events) {
						t.Errorf("tenant %d (%s): event trace diverges from solo run (%d vs %d events)", ft.Tenant, ft.Bench, len(evs), len(solo.events))
					}
				}
				// Cache accounting: every lookup either compiled, hit the
				// table, or joined a flight. TestFleetCompilesEachKeyOnce
				// pins the exactly-once compile count itself.
				c := res.Cache
				if c.Hits+c.FlightWaits+c.Compiles != c.Lookups {
					t.Errorf("cache accounting: hits %d + flight-waits %d + compiles %d != lookups %d",
						c.Hits, c.FlightWaits, c.Compiles, c.Lookups)
				}
			})
		}
	}
}

// TestVerifyFleet exercises the public verification helper end to end.
func TestVerifyFleet(t *testing.T) {
	fc := FleetConfig{
		Tenants:        4,
		Mix:            []string{"swim", "equake"},
		CompileWorkers: 2,
		MaxInsts:       40_000,
	}
	res, err := RunFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyFleet(fc, res); err != nil {
		t.Fatal(err)
	}
	if got := res.Render(); len(got) == 0 {
		t.Error("empty fleet report")
	}
}

// TestDefaultFleetInstallsAtRequest: a default fleet's tenants install
// each compile at its request, as -compile-workers 0 says, so a default
// 1-tenant swim fleet is a solo Workers 0 run with no shared cache, in
// stats, registers and memory digest.
func TestDefaultFleetInstallsAtRequest(t *testing.T) {
	res, err := RunFleet(FleetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.CompileMode(); got != "compiles install at their request" {
		t.Errorf("default fleet compile mode %q", got)
	}
	cfg, err := ParseConfig(CfgSMARQ64)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Compile.Workers != 0 || cfg.Compile.SharedCache != nil {
		t.Fatalf("solo baseline is not an inline run without a cache: %+v", cfg.Compile)
	}
	bm, _ := workload.ByName("swim")
	sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	halted, err := sys.Run(bm.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	solo := FleetTenant{Bench: "swim", Stats: sys.Stats, Halted: halted, State: *sys.State(), MemDigest: sys.Mem().Digest()}
	if err := verifyTenant(&res.Tenants[0], &solo); err != nil {
		t.Error(err)
	}
	if c := res.Tenants[0].Stats.Compile; c.Installed == 0 || c.WorkCycles != 0 {
		t.Errorf("the fleet tenant did not install at its requests: %+v", c)
	}
}

// TestFleetRejectsNegativeCompileWorkers: a negative CompileWorkers is a
// configuration error, not a silent choice of compile mode.
func TestFleetRejectsNegativeCompileWorkers(t *testing.T) {
	if res, err := RunFleet(FleetConfig{Tenants: 2, CompileWorkers: -1}); err == nil {
		t.Errorf("workers -1: RunFleet ran %d tenants, want an error", len(res.Tenants))
	}
}

// TestFleetCompilesEachKeyOnce pins the shared cache's deduplication at
// 100%: four identical tenants with queued compiles must count exactly as
// many compiles as one tenant alone. Every would-be duplicate is a table
// hit, or a lookup that raced a peer's lookup of the key. The swim cell is
// BenchmarkFleet's shape (its dedupe-pct); the full ammp run requests more
// regions while the tenants run side by side, so many of its requests
// land while a peer's build of the key is still in the output store's
// flight. Which lookups race depends on goroutine timing, so each cell
// runs three fleets.
func TestFleetCompilesEachKeyOnce(t *testing.T) {
	for _, c := range []struct {
		bench    string
		maxInsts uint64
	}{
		{"swim", 100_000},
		{"ammp", 0},
	} {
		t.Run(c.bench, func(t *testing.T) {
			run := func(tenants int) codecache.Stats {
				res, err := RunFleet(FleetConfig{
					Tenants: tenants, Mix: []string{c.bench}, CompileWorkers: 2, MaxInsts: c.maxInsts,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res.Cache
			}
			solo := run(1)
			if solo.Compiles == 0 {
				t.Fatal("solo fleet run compiled nothing")
			}
			for round := 0; round < 3; round++ {
				fleet := run(4)
				if fleet.Compiles != solo.Compiles {
					t.Errorf("fleet %d: 4 identical tenants compiled %d regions, one tenant alone %d: the shared cache let %d duplicate compiles through",
						round, fleet.Compiles, solo.Compiles, fleet.Compiles-solo.Compiles)
				}
				if fleet.Lookups != 4*solo.Lookups {
					t.Errorf("fleet %d: 4 tenants made %d cache lookups, want 4 × the solo run's %d", round, fleet.Lookups, solo.Lookups)
				}
			}
		})
	}
}

// TestFleetSharesAcrossPrograms runs 2-tenant fleets of two different
// programs that contain one equal trace (a 6-instruction single-block
// loop body). The fleet cache keys on the compile input's content, not on
// the superblock pointer, so one tenant's lookup of that trace is served
// by the other program's compile: the fleet makes as many lookups as the
// two solo runs together and exactly one compile fewer. Both tenants must
// still match their solo runs (VerifyFleet).
func TestFleetSharesAcrossPrograms(t *testing.T) {
	for _, mix := range [][]string{{"equake", "fma3d"}, {"mgrid", "applu"}} {
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s+%s/workers%d", mix[0], mix[1], workers), func(t *testing.T) {
				fc := FleetConfig{Tenants: 2, Mix: mix, CompileWorkers: workers}
				var solo codecache.Stats
				for _, bench := range mix {
					sfc := fc
					sfc.Tenants, sfc.Mix = 1, []string{bench}
					res, err := RunFleet(sfc)
					if err != nil {
						t.Fatal(err)
					}
					solo.Lookups += res.Cache.Lookups
					solo.Compiles += res.Cache.Compiles
				}
				res, err := RunFleet(fc)
				if err != nil {
					t.Fatal(err)
				}
				if res.Cache.Lookups != solo.Lookups {
					t.Errorf("the fleet made %d lookups, its solo runs %d", res.Cache.Lookups, solo.Lookups)
				}
				if shared := solo.Compiles - res.Cache.Compiles; shared != 1 {
					t.Errorf("%d lookups were served by the other program's compile, want 1 (fleet %+v)", shared, res.Cache)
				}
				if err := VerifyFleet(fc, res); err != nil {
					t.Error(err)
				}
			})
		}
	}
}

// TestFleetOneRegionCodeCacheMatchesSolo runs a fleet whose tenants keep
// returning to code they built: a one-region code cache evicts a region
// at every other region's install, and the region's next compile request
// carries the inputs of its stored build, which the output store
// re-installs. Each such request looks its key up again in the shared
// cache. The fleet must finish — a flight left unsettled would block
// every later lookup of its key — and every tenant must still match its
// solo run, by the same diff VerifyFleet applies. RunFleet has no
// code-cache knob, so the test assembles the fleet from dynopt directly.
func TestFleetOneRegionCodeCacheMatchesSolo(t *testing.T) {
	mix := []string{"swim", "ammp", "swim", "ammp"}
	config := func() dynopt.Config {
		cfg := dynopt.ConfigSMARQ(64)
		cfg.CodeCacheCapacity = 1
		cfg.Compile.Workers = 2
		return cfg
	}
	run := func(bench string, cfg dynopt.Config) FleetTenant {
		bm, ok := workload.ByName(bench)
		if !ok {
			t.Errorf("no benchmark %q", bench)
			return FleetTenant{}
		}
		sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
		halted, err := sys.Run(bm.MaxInsts)
		if err != nil {
			t.Errorf("%s: %v", bench, err)
		}
		return FleetTenant{Bench: bench, Stats: sys.Stats, Halted: halted,
			State: *sys.State(), MemDigest: sys.Mem().Digest()}
	}

	// Solo baselines, each over its own cache.
	solo := map[string]FleetTenant{}
	for _, bench := range mix {
		if _, ok := solo[bench]; !ok {
			cfg := config()
			cfg.Compile.SharedCache = dynopt.NewCodeCache()
			solo[bench] = run(bench, cfg)
		}
	}

	cache := dynopt.NewCodeCache()
	tenants := make([]FleetTenant, len(mix))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i, bench := range mix {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := config()
				cfg.Compile.SharedCache = cache
				tenants[i] = run(bench, cfg)
				tenants[i].Tenant = i
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("the fleet did not finish: a cache flight was never settled")
	}

	for i := range tenants {
		base := solo[tenants[i].Bench]
		if err := verifyTenant(&tenants[i], &base); err != nil {
			t.Error(err)
		}
	}
}
