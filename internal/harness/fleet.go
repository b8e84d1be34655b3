// Fleet execution: M independent tenant Systems running concurrently on
// their own goroutines, all compiling through one content-addressed LRU
// compile cache (dynopt.CodeCache).
// Tenants share *host* resources only — guest state, memory, stats and
// telemetry stay per-tenant, and every tenant's simulated results are
// byte-identical to its solo run modulo the cache hit/miss/dedupe
// counters (VerifyFleet checks exactly that).

package harness

import (
	"context"
	"fmt"
	"reflect"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smarq/internal/codecache"
	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// FleetConfig configures one fleet run.
type FleetConfig struct {
	// Tenants is the number of concurrently running Systems (>= 1).
	Tenants int
	// Mix assigns benchmarks to tenants round-robin (tenant i runs
	// Mix[i%len(Mix)]). Empty selects {"swim"}.
	Mix []string
	// Config names the dynopt configuration every tenant runs under
	// (ParseConfig names). Empty selects "smarq64".
	Config string
	// CompileWorkers is every tenant's Compile.Workers: 0 (the default)
	// installs each compile at its request, >= 1 queues it; a negative
	// value is an error. A 1-tenant fleet is therefore exactly the solo
	// baseline configuration.
	CompileWorkers int
	// CacheMaxEntries/CacheMaxBytes bound the shared compile cache (see
	// codecache.Options); 0 means unbounded, and a negative budget is an
	// error.
	CacheMaxEntries int64
	CacheMaxBytes   int64
	// MaxInsts caps each tenant's retired guest instructions; 0 uses each
	// benchmark's own budget.
	MaxInsts uint64
	// Scale multiplies the workload iteration counts (workload.SuiteScaled).
	Scale int64
	// Telemetry, when set, builds each tenant's telemetry bundle before
	// it runs (nil return leaves that tenant untraced). The fleet flushes
	// each tenant's tracer when its run completes; closing sinks is the
	// caller's job.
	Telemetry func(tenant int, bench string) *telemetry.Telemetry
	// Metrics, when set, receives the shared cache's fleet-global
	// instruments (codecache_* counters and gauges) at end of run.
	Metrics *telemetry.Registry
	// Listen, when non-empty, serves the observability plane (Prometheus
	// /metrics with per-tenant labels, /healthz, /debug/cache,
	// /debug/tenants, pprof) at this address for the duration of the run;
	// ":0" binds an ephemeral port. Every tenant is given a metrics
	// registry (reusing the Telemetry hook's when it provides one) so the
	// live page has per-tenant series. The server is shut down before
	// RunFleet returns.
	Listen string
	// ObsReady, when set with Listen, is called with the server's bound
	// address once it is serving, before any tenant starts — tests use it
	// to scrape a live fleet on a port-0 bind.
	ObsReady func(addr string)
}

// withDefaults resolves the zero-value knobs.
func (fc FleetConfig) withDefaults() FleetConfig {
	if fc.Tenants < 1 {
		fc.Tenants = 1
	}
	if len(fc.Mix) == 0 {
		fc.Mix = []string{"swim"}
	}
	if fc.Config == "" {
		fc.Config = CfgSMARQ64
	}
	return fc
}

// FleetTenant is one tenant's outcome.
type FleetTenant struct {
	Tenant int
	Bench  string
	Stats  dynopt.Stats
	Halted bool
	// State and MemDigest capture the tenant's final guest state for the
	// determinism diff against its solo run.
	State     guest.State
	MemDigest uint64
	// Wall is the tenant's host wall time.
	Wall time.Duration
}

// FleetResult is the outcome of one fleet run.
type FleetResult struct {
	Tenants []FleetTenant
	// Wall is the whole fleet's host wall time (start of the first tenant
	// to completion of the last).
	Wall time.Duration
	// Cache is the shared compile cache's end-of-run snapshot.
	Cache codecache.Stats
	// Workers and Config echo the effective fleet configuration.
	Workers int
	Config  string
}

// CompileMode names how the fleet's tenants installed their compiles.
func (r *FleetResult) CompileMode() string {
	if r.Workers >= 1 {
		return "queued compiles"
	}
	return "compiles install at their request"
}

// Commits sums regions executed (committed) across tenants.
func (r *FleetResult) Commits() int64 {
	var n int64
	for i := range r.Tenants {
		n += r.Tenants[i].Stats.Commits
	}
	return n
}

// GuestInsts sums retired guest instructions across tenants.
func (r *FleetResult) GuestInsts() int64 {
	var n int64
	for i := range r.Tenants {
		n += r.Tenants[i].Stats.GuestInsts
	}
	return n
}

// DedupeRate is the fraction of cache lookups served without running a
// compile — a table hit or a joined flight. With identical tenants it
// approaches 1 as the fleet grows: every region compiles once fleet-wide.
func (r *FleetResult) DedupeRate() float64 {
	if r.Cache.Lookups == 0 {
		return 0
	}
	return float64(r.Cache.Lookups-r.Cache.Compiles) / float64(r.Cache.Lookups)
}

// RunFleet executes fc.Tenants Systems concurrently over the shared cache
// and blocks until every tenant finishes. Each tenant's Run waits for its
// own compile jobs, and the cache is snapshotted after the last tenant, so
// the returned stats are exact.
func RunFleet(fc FleetConfig) (*FleetResult, error) {
	fc = fc.withDefaults()
	if fc.CompileWorkers < 0 {
		return nil, fmt.Errorf("harness: CompileWorkers %d, want >= 0 (0 = install at the request)", fc.CompileWorkers)
	}
	if fc.CacheMaxEntries < 0 || fc.CacheMaxBytes < 0 {
		return nil, fmt.Errorf("harness: cache budgets %d entries / %d bytes, want >= 0 (0 = unbounded)",
			fc.CacheMaxEntries, fc.CacheMaxBytes)
	}
	baseCfg, err := ParseConfig(fc.Config)
	if err != nil {
		return nil, err
	}
	benches := make([]workload.Benchmark, fc.Tenants)
	for i := range benches {
		name := fc.Mix[i%len(fc.Mix)]
		bm, ok := workload.ByNameScaled(name, fc.Scale)
		if !ok {
			return nil, fmt.Errorf("harness: no benchmark %q in the suite", name)
		}
		benches[i] = bm
	}

	cache := dynopt.NewCodeCache(codecache.Options{
		MaxEntries: fc.CacheMaxEntries,
		MaxBytes:   fc.CacheMaxBytes,
	})

	// Per-tenant telemetry bundles are built up front (not inside the
	// tenant goroutines) so the observability plane can expose every
	// tenant's registry before the first region compiles.
	telemetries := make([]*telemetry.Telemetry, fc.Tenants)
	if fc.Telemetry != nil {
		for i := range telemetries {
			telemetries[i] = fc.Telemetry(i, benches[i].Name)
		}
	}
	obsrv, err := startFleetObs(fc, benches, telemetries, cache)
	if err != nil {
		return nil, err
	}
	defer obsrv.shutdown()

	res := &FleetResult{
		Tenants: make([]FleetTenant, fc.Tenants),
		Workers: fc.CompileWorkers,
		Config:  fc.Config,
	}
	errs := make([]error, fc.Tenants)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < fc.Tenants; i++ {
		wg.Add(1)
		go func(tenant int, bm workload.Benchmark) {
			defer wg.Done()
			// Label the tenant's whole lifetime so CPU and goroutine
			// profiles of a fleet run attribute samples to tenant/bench
			// instead of one anonymous pile of RunFleet.func1 frames.
			labels := pprof.Labels(
				"tenant", strconv.Itoa(tenant),
				"bench", bm.Name,
				"fleet_config", fc.Config,
			)
			pprof.Do(context.Background(), labels, func(context.Context) {
				cfg := baseCfg
				cfg.Compile.Workers = fc.CompileWorkers
				cfg.Compile.SharedCache = cache
				cfg.Telemetry = telemetries[tenant]
				maxInsts := bm.MaxInsts
				if fc.MaxInsts > 0 {
					maxInsts = fc.MaxInsts
				}
				t0 := time.Now()
				// Tenants of one benchmark share its immutable program
				// and decoded code; whichever tenant gets there first
				// builds and decodes it, once.
				sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
				halted, err := sys.Run(maxInsts)
				if ferr := cfg.Telemetry.Tracer().Flush(); ferr != nil && err == nil {
					err = ferr
				}
				if err != nil {
					errs[tenant] = fmt.Errorf("harness: fleet tenant %d (%s): %w", tenant, bm.Name, err)
					return
				}
				res.Tenants[tenant] = FleetTenant{
					Tenant:    tenant,
					Bench:     bm.Name,
					Stats:     sys.Stats,
					Halted:    halted,
					State:     *sys.State(),
					MemDigest: sys.Mem().Digest(),
					Wall:      time.Since(t0),
				}
				obsrv.markDone(tenant, sys.Stats)
			})
		}(i, benches[i])
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Cache = cache.Stats()
	if fc.Metrics != nil {
		cache.PublishMetrics(fc.Metrics)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ScrubSharedCounters zeroes the stats fields that legitimately differ
// between a fleet run and a solo run of the same tenant: whether a lookup
// hit, missed, or joined another tenant's flight depends on fleet
// interleaving, but nothing else may (the costs of a hit are replayed
// exactly as a fresh compile's). Everything outside these three counters
// must be byte-identical — that is the fleet determinism contract.
func ScrubSharedCounters(st dynopt.Stats) dynopt.Stats {
	st.Compile.MemoHits = 0
	st.Compile.MemoMisses = 0
	st.Compile.DedupeWaits = 0
	return st
}

// VerifyFleet re-runs each distinct benchmark in res as a solo 1-tenant
// fleet under the same configuration and diffs every fleet tenant against
// its solo baseline: scrubbed stats, final guest registers, and the guest
// memory digest must match exactly. A non-nil error names the first
// diverging tenant and field.
func VerifyFleet(fc FleetConfig, res *FleetResult) error {
	fc = fc.withDefaults()
	solo := make(map[string]*FleetTenant)
	for i := range res.Tenants {
		ft := &res.Tenants[i]
		base, ok := solo[ft.Bench]
		if !ok {
			sfc := fc
			sfc.Tenants = 1
			sfc.Mix = []string{ft.Bench}
			sfc.Telemetry = nil
			sfc.Metrics = nil
			sfc.Listen = ""
			sfc.ObsReady = nil
			sres, err := RunFleet(sfc)
			if err != nil {
				return fmt.Errorf("harness: solo baseline for %s: %w", ft.Bench, err)
			}
			base = &sres.Tenants[0]
			solo[ft.Bench] = base
		}
		if err := verifyTenant(ft, base); err != nil {
			return err
		}
	}
	return nil
}

// verifyTenant diffs one fleet tenant against its solo baseline (see
// VerifyFleet).
func verifyTenant(ft, base *FleetTenant) error {
	if ft.Halted != base.Halted {
		return fmt.Errorf("harness: tenant %d (%s): halted=%v, solo halted=%v", ft.Tenant, ft.Bench, ft.Halted, base.Halted)
	}
	if got, want := ScrubSharedCounters(ft.Stats), ScrubSharedCounters(base.Stats); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("harness: tenant %d (%s): stats diverge from solo run:\nfleet: %+v\nsolo:  %+v", ft.Tenant, ft.Bench, got, want)
	}
	if ft.State != base.State {
		return fmt.Errorf("harness: tenant %d (%s): final guest registers diverge from solo run", ft.Tenant, ft.Bench)
	}
	if ft.MemDigest != base.MemDigest {
		return fmt.Errorf("harness: tenant %d (%s): guest memory digest %#x, solo %#x", ft.Tenant, ft.Bench, ft.MemDigest, base.MemDigest)
	}
	return nil
}

// latencyPercentiles reports the p50/p95/max of a tenant's per-region
// compile latencies (enqueue→install, simulated cycles).
func latencyPercentiles(st *dynopt.Stats) (p50, p95, max int64) {
	lat := make([]int64, 0, len(st.Regions))
	for i := range st.Regions {
		lat = append(lat, st.Regions[i].CompileLatency)
	}
	if len(lat) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pick := func(q float64) int64 {
		idx := int(q * float64(len(lat)-1))
		return lat[idx]
	}
	return pick(0.50), pick(0.95), lat[len(lat)-1]
}

// Render produces the fleet report: one row per tenant plus the
// fleet-wide aggregate and shared-cache lines.
func (r *FleetResult) Render() string {
	header := []string{"tenant", "bench", "guest-insts", "commits", "hits", "dedupe-waits", "lat-p50", "lat-p95", "lat-max", "wall"}
	rows := make([][]string, 0, len(r.Tenants))
	for i := range r.Tenants {
		ft := &r.Tenants[i]
		p50, p95, maxLat := latencyPercentiles(&ft.Stats)
		rows = append(rows, []string{
			fmt.Sprintf("%d", ft.Tenant),
			ft.Bench,
			fmt.Sprintf("%d", ft.Stats.GuestInsts),
			fmt.Sprintf("%d", ft.Stats.Commits),
			fmt.Sprintf("%d", ft.Stats.Compile.MemoHits),
			fmt.Sprintf("%d", ft.Stats.Compile.DedupeWaits),
			fmt.Sprintf("%d", p50),
			fmt.Sprintf("%d", p95),
			fmt.Sprintf("%d", maxLat),
			ft.Wall.Round(time.Millisecond).String(),
		})
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet: %d tenants, %s, config %s\n\n", len(r.Tenants), r.CompileMode(), r.Config)
	sb.WriteString(table(header, rows))
	secs := r.Wall.Seconds()
	if secs <= 0 {
		secs = 1
	}
	fmt.Fprintf(&sb, "\naggregate: %d commits (%.0f regions/sec), %d guest insts (%.0f insts/sec), wall %s\n",
		r.Commits(), float64(r.Commits())/secs, r.GuestInsts(), float64(r.GuestInsts())/secs,
		r.Wall.Round(time.Millisecond))
	c := &r.Cache
	fmt.Fprintf(&sb, "shared cache: %d lookups, %d hits, %d flight-waits, %d compiles, %d evictions (%d entries, %d bytes live), dedupe %.1f%%\n",
		c.Lookups, c.Hits, c.FlightWaits, c.Compiles, c.Evictions, c.Entries, c.Bytes, 100*r.DedupeRate())
	return sb.String()
}
