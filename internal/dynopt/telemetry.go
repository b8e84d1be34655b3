// Telemetry integration. Stats is the one record of counts: every dynopt
// counter in the metrics registry is a published view of it (statCounters,
// publish), never incremented at its site. What Stats does not hold —
// cycle-stamped events, histograms of distributions, and the current-level
// gauges — is emitted at its site by the helpers below. Every helper is
// nil-receiver safe, so a run without telemetry costs one pointer check per
// event site, and the enabled hot path costs one ring copy plus a few
// atomic adds — no formatting, no allocation (see the
// TestRunRegionZeroAllocs pins).
package dynopt

import (
	"smarq/internal/health"
	"smarq/internal/telemetry"
)

// init teaches the telemetry encoders the ladder's rung names without
// making the telemetry package depend on dynopt.
func init() {
	telemetry.TierName = func(t int) string {
		return Tier(t).String()
	}
}

// Gauge and histogram names, as they appear in the -metrics JSON snapshot
// (the counters' names are in statCounters).
const (
	gCompileQueue = "compile_queue_depth"
	gHealthLevel  = "health_level"

	hRollbackCost   = "rollback_cost_cycles"
	hRegionSize     = "region_size_ops"
	hAliasRegs      = "alias_regs_working_set"
	hOccupancy      = "queue_occupancy"
	hCompile        = "compile_cycles"
	hCompileLatency = "compile_latency_cycles"

	// Observability-plane additions: install-to-dispatch lag, and the
	// wait of a compile that joined another tenant's flight.
	hInstallLag = "install_dispatch_lag_cycles"
	hDedupeWait = "dedupe_wait_cycles"
)

// statCounter is one published counter: its -metrics key and the read of
// Stats it publishes.
type statCounter struct {
	name string
	read func(*Stats) int64
}

// statCounters is every dynopt counter: its -metrics key and its read of
// Stats.
var statCounters = [...]statCounter{
	{"dynopt_commits", func(st *Stats) int64 { return st.Commits }},
	{"dynopt_rollbacks", func(st *Stats) int64 { return st.AliasExceptions + st.GuardFails + st.Faults }},
	{"dynopt_alias_exceptions", func(st *Stats) int64 { return st.AliasExceptions }},
	{"dynopt_guard_fails", func(st *Stats) int64 { return st.GuardFails }},
	{"dynopt_faults", func(st *Stats) int64 { return st.Faults }},
	{"dynopt_compiles", func(st *Stats) int64 { return int64(st.RegionsCompiled) }},
	{"dynopt_recompiles", func(st *Stats) int64 { return int64(st.Recompiles) }},
	{"dynopt_evictions", func(st *Stats) int64 { return st.Recovery.Evictions }},
	{"dynopt_demotions", func(st *Stats) int64 { return st.Recovery.Demotions }},
	{"dynopt_promotions", func(st *Stats) int64 { return st.Recovery.Promotions }},
	{"dynopt_drops", func(st *Stats) int64 { return int64(st.RegionsDropped) }},
	{"dynopt_chaos_injected", func(st *Stats) int64 {
		in := &st.Injected
		return in.SpuriousAliases + in.GuardFails + in.CompileFails + in.Corruptions +
			in.WorkerPanics + in.CompileHangs + in.PoisonedResults
	}},
	{"dynopt_dispatches", func(st *Stats) int64 {
		var n int64
		for tier := TierFull; tier < TierPinned; tier++ {
			n += st.Recovery.TierDispatches[tier]
		}
		return n
	}},
	{"interp_insts", func(st *Stats) int64 { return st.InterpretedInsts }},

	{"dynopt_compile_enqueues", func(st *Stats) int64 { return st.Compile.Enqueued }},
	{"dynopt_compile_installs", func(st *Stats) int64 { return st.Compile.Installed + st.Compile.Failed }},
	{"dynopt_compile_cancels", func(st *Stats) int64 { return st.Compile.Canceled }},
	{"dynopt_memo_hits", func(st *Stats) int64 { return st.Compile.MemoHits }},
	{"dynopt_memo_misses", func(st *Stats) int64 { return st.Compile.MemoMisses }},

	{"dynopt_host_faults", func(st *Stats) int64 {
		return st.Compile.WorkerPanics + st.Compile.WatchdogKills + st.Compile.Rejected
	}},
	{"dynopt_quarantined", func(st *Stats) int64 { return st.Compile.Quarantined }},
	{"dynopt_health_demotions", func(st *Stats) int64 { return st.Health.Demotions }},
	{"dynopt_health_promotions", func(st *Stats) int64 { return st.Health.Promotions }},

	tierCounter(TierFull),
	tierCounter(TierNoStoreReorder),
	tierCounter(TierNoElim),
	tierCounter(TierConservative),
	tierCounter(TierPinned),
}

// mTierFamily is the per-rung dispatch counter family.
const mTierFamily = "dynopt_tier_dispatches"

// tierCounter is the dynopt_tier_dispatches{tier="..."} series of one
// ladder rung. The pinned rung's dispatches are interpreted entries.
func tierCounter(tier Tier) statCounter {
	return statCounter{
		telemetry.Labeled(mTierFamily, telemetry.Label{Name: "tier", Value: tier.String()}),
		func(st *Stats) int64 { return st.Recovery.TierDispatches[tier] },
	}
}

// publishPeriod is how many Run-loop iterations pass between periodic
// publishes: a live scrape lags Stats by at most this many dispatches.
const publishPeriod = 1024

// systemTelemetry is the per-System view of an enabled telemetry bundle:
// the tracer plus every instrument resolved once at construction so the
// hot path never touches the registry.
type systemTelemetry struct {
	tr *telemetry.Tracer

	// counters holds statCounters' instruments in table order. published
	// is each one's Stats value at this System's last publish, so Systems
	// sharing one registry each add only their own growth. ticks counts
	// Run-loop iterations toward the next periodic publish.
	counters  [len(statCounters)]*telemetry.Counter
	published [len(statCounters)]int64
	ticks     int

	rollbackCost *telemetry.Histogram
	regionSize   *telemetry.Histogram
	aliasRegs    *telemetry.Histogram
	occupancy    *telemetry.Histogram
	compileCost  *telemetry.Histogram

	// installLag tracks simulated cycles between a compiled region being
	// installed in the code cache and its first dispatch.
	installLag *telemetry.Histogram

	// Compile-queue and compile-output-cache instruments. Every one is
	// registered whatever the configuration, so every run's -metrics
	// snapshot has the same key set; an unused feature reads zero.
	queueDepth     *telemetry.Gauge
	compileLatency *telemetry.Histogram

	// dedupeWait tracks how long a compile that joined a cross-tenant
	// flight waited on it (shared cache only).
	dedupeWait *telemetry.Histogram

	healthLevel *telemetry.Gauge
}

// newSystemTelemetry resolves instruments against the bundle. Returns nil
// when the bundle is nil or empty, so System.tel stays a single nil check.
func newSystemTelemetry(cfg *Config) *systemTelemetry {
	t := cfg.Telemetry
	if t == nil || (t.Events == nil && t.Metrics == nil) {
		return nil
	}
	reg := t.Metrics // nil Registry hands out nil (inert) instruments
	st := &systemTelemetry{
		tr: t.Events,

		rollbackCost: reg.Histogram(hRollbackCost, telemetry.Pow2Bounds(16, 1024)),
		regionSize:   reg.Histogram(hRegionSize, telemetry.Pow2Bounds(4, 256)),
		aliasRegs:    reg.Histogram(hAliasRegs, telemetry.Pow2Bounds(1, 64)),
		occupancy:    reg.Histogram(hOccupancy, telemetry.Pow2Bounds(1, 64)),
		compileCost:  reg.Histogram(hCompile, telemetry.Pow2Bounds(64, 4096)),

		installLag: reg.Histogram(hInstallLag, telemetry.Pow2Bounds(64, 65536)),

		queueDepth:     reg.Gauge(gCompileQueue),
		compileLatency: reg.Histogram(hCompileLatency, telemetry.Pow2Bounds(256, 65536)),
		dedupeWait:     reg.Histogram(hDedupeWait, telemetry.Pow2Bounds(64, 65536)),

		healthLevel: reg.Gauge(gHealthLevel),
	}
	for i := range statCounters {
		st.counters[i] = reg.Counter(statCounters[i].name)
	}
	return st
}

// due counts one Run-loop iteration and reports whether a periodic publish
// is due.
func (st *systemTelemetry) due() bool {
	if st == nil {
		return false
	}
	if st.ticks++; st.ticks < publishPeriod {
		return false
	}
	st.ticks = 0
	return true
}

// publish adds each statCounters read's growth since this System's last
// publish to its registry counter. It runs on the simulation thread at
// every Run return, so a snapshot taken after Run is exact, and every
// publishPeriod Run-loop iterations, so live scrapes stay current. It does
// not allocate.
func (s *System) publish() {
	st := s.tel
	if st == nil {
		return
	}
	s.syncLiveStats()
	for i := range statCounters {
		v := statCounters[i].read(&s.Stats)
		if d := v - st.published[i]; d != 0 {
			st.counters[i].Add(d)
			st.published[i] = v
		}
	}
}

// now is the simulated cycle clock events are stamped with: the sum of
// the per-category cycle accounts, which only ever grows as the run
// proceeds (TotalCycles itself is derived once in finalize).
func (s *System) now() int64 {
	st := &s.Stats
	return st.InterpCycles + st.RegionCycles + st.RollbackCycles +
		st.OptCycles + st.SchedCycles
}

func (st *systemTelemetry) regionCompile(cycle int64, entry int, tier Tier, rs *RegionStats) {
	if st == nil {
		return
	}
	st.regionSize.Observe(int64(rs.SeqLen))
	st.aliasRegs.Observe(int64(rs.Alloc.WorkingSet))
	st.compileCost.Observe(rs.Cycles)
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindCompile,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cost: rs.Cycles,
		A:    int64(rs.SeqLen), B: int64(rs.GuestInsts),
		C: int64(rs.MemOps), D: int64(rs.Alloc.WorkingSet),
	})
}

// compileQueued records a compilation entering the queue: cost is the
// modelled latency, depth the queue depth after the enqueue, memoHit
// whether the cache already held the result.
// Inline compiles never queue, so they emit no compile-enqueue event.
func (st *systemTelemetry) compileQueued(cycle int64, entry int, tier Tier, cost int64, depth int, memoHit bool) {
	if st == nil {
		return
	}
	st.queueDepth.Set(int64(depth))
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindCompileEnqueue,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cost: cost, A: int64(depth), B: b2i(memoHit),
	})
}

// compileInstalled records the enqueue→install latency of a compile
// reaching its install point (the event is the KindCompile emitted by
// regionCompile).
func (st *systemTelemetry) compileInstalled(latency int64) {
	if st == nil {
		return
	}
	st.compileLatency.Observe(latency)
}

// compileDequeued updates the queue-depth gauge after a queued
// compilation leaves the queue for its install point.
func (st *systemTelemetry) compileDequeued(depth int) {
	if st == nil {
		return
	}
	st.queueDepth.Set(int64(depth))
}

// compileCancel records a pending compilation being thrown away.
func (st *systemTelemetry) compileCancel(cycle int64, entry int, tier Tier, cause telemetry.Cause, depth int) {
	if st == nil {
		return
	}
	st.queueDepth.Set(int64(depth))
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindCompileCancel,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause,
	})
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (st *systemTelemetry) dispatch(cycle int64, entry int, tier Tier) {
	if st == nil {
		return
	}
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindDispatch,
		Region: int32(entry), Tier: int8(tier), To: -1,
	})
}

// firstDispatch records the install-to-dispatch lag the first time a
// freshly installed region is actually executed.
func (st *systemTelemetry) firstDispatch(lag int64) {
	if st == nil {
		return
	}
	st.installLag.Observe(lag)
}

// dedupeWaited records how long a compile that joined a cross-tenant
// flight sat behind the flight that produced its code.
func (st *systemTelemetry) dedupeWaited(wait int64) {
	if st == nil {
		return
	}
	st.dedupeWait.Observe(wait)
}

func (st *systemTelemetry) commit(cycle int64, entry int, tier Tier, cost int64, arHighWater, storesBuffered int) {
	if st == nil {
		return
	}
	st.occupancy.Observe(int64(arHighWater))
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindCommit,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cost: cost,
		A:    int64(arHighWater), B: int64(storesBuffered),
	})
}

// rollback records one non-commit outcome: every alias, guard and fault
// outcome routes through it (a fault records nothing else).
func (st *systemTelemetry) rollback(cycle int64, entry int, tier Tier, cause telemetry.Cause, cost int64, opsExecuted int) {
	if st == nil {
		return
	}
	st.rollbackCost.Observe(cost)
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindRollback,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause, Cost: cost, A: int64(opsExecuted),
	})
}

// aliasRollback records an alias-exception outcome (cause distinguishes
// genuine from injected); checker/origin identify the violated pair, or
// -1/-1 when there is none (injected exceptions carry no pair).
func (st *systemTelemetry) aliasRollback(cycle int64, entry int, tier Tier, cause telemetry.Cause, cost int64, opsExecuted, checker, origin int) {
	if st == nil {
		return
	}
	st.rollback(cycle, entry, tier, cause, cost, opsExecuted)
	if checker >= 0 {
		st.tr.Emit(telemetry.Event{
			Cycle: cycle, Kind: telemetry.KindAliasException,
			Region: int32(entry), Tier: int8(tier), To: -1,
			A: int64(checker), B: int64(origin),
		})
	}
}

// guardRollback records an off-trace side exit and its fail streak.
func (st *systemTelemetry) guardRollback(cycle int64, entry int, tier Tier, cause telemetry.Cause, cost int64, opsExecuted, streak int) {
	if st == nil {
		return
	}
	st.rollback(cycle, entry, tier, cause, cost, opsExecuted)
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindGuardFail,
		Region: int32(entry), Tier: int8(tier), To: -1,
		A: int64(streak),
	})
}

// tierMove emits one ladder move. from/to are the rungs on either side;
// cause qualifies demotions (CauseNone for promotions). Demotions may
// jump several rungs (the chronic cap); promotions are always single
// steps.
func (st *systemTelemetry) tierMove(cycle int64, entry int, from, to Tier, cause telemetry.Cause) {
	if st == nil || from == to {
		return
	}
	kind := telemetry.KindDemote
	if to < from {
		kind = telemetry.KindPromote
	}
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: kind,
		Region: int32(entry), Tier: int8(from), To: int8(to),
		Cause: cause,
	})
}

func (st *systemTelemetry) evict(cycle int64, entry int, tier Tier) {
	if st == nil {
		return
	}
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindEvict,
		Region: int32(entry), Tier: int8(tier), To: -1,
	})
}

func (st *systemTelemetry) drop(cycle int64, entry int, tier Tier, cause telemetry.Cause) {
	if st == nil {
		return
	}
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindDrop,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause,
	})
}

// chaosInjected records one applied fault, named by its cause, its region
// and the ordinal of its draw among the region's draws of its class.
func (st *systemTelemetry) chaosInjected(cycle int64, entry int, tier Tier, cause telemetry.Cause, ord uint32) {
	if st == nil {
		return
	}
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindChaos,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause, A: int64(ord),
	})
}

// hostFault records one contained host-side compile fault (worker panic,
// watchdog kill, rejected poisoned result).
func (st *systemTelemetry) hostFault(cycle int64, entry int, tier Tier, cause telemetry.Cause) {
	if st == nil {
		return
	}
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindHostFault,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause,
	})
}

// quarantine records a region being permanently barred from compiling.
func (st *systemTelemetry) quarantine(cycle int64, entry int, tier Tier, cause telemetry.Cause) {
	if st == nil {
		return
	}
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindQuarantine,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause,
	})
}

// healthMove records one global degradation-ladder transition. The
// event's from/to payloads are health levels, not speculation tiers, so
// Tier/To stay -1 and the levels ride in the A/B slots.
func (st *systemTelemetry) healthMove(cycle int64, mv health.Move, cause telemetry.Cause) {
	if st == nil {
		return
	}
	st.healthLevel.Set(int64(mv.To))
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindHealth,
		Region: -1, Tier: -1, To: -1,
		A: int64(mv.From), B: int64(mv.To),
		Cause: cause,
	})
}
