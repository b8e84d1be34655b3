// Telemetry integration: the systemTelemetry helper owns the System's
// tracer handle and pre-registered metrics instruments, and every emit
// helper below is nil-receiver safe, so a run without telemetry costs one
// pointer check per event site and the enabled hot path costs one ring
// copy plus a few atomic adds — no formatting, no allocation (see the
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

// Metric instrument names, as they appear in the -metrics JSON snapshot.
const (
	mCommits         = "dynopt_commits"
	mRollbacks       = "dynopt_rollbacks"
	mAliasExceptions = "dynopt_alias_exceptions"
	mGuardFails      = "dynopt_guard_fails"
	mFaults          = "dynopt_faults"
	mCompiles        = "dynopt_compiles"
	mRecompiles      = "dynopt_recompiles"
	mEvictions       = "dynopt_evictions"
	mDemotions       = "dynopt_demotions"
	mPromotions      = "dynopt_promotions"
	mDrops           = "dynopt_drops"
	mChaos           = "dynopt_chaos_injected"
	mDispatches      = "dynopt_dispatches"
	mInterpInsts     = "interp_insts"

	// Background-compilation instruments, registered only when the
	// feature is on so synchronous runs keep byte-identical -metrics
	// snapshots.
	mCompileEnqueues = "dynopt_compile_enqueues"
	mCompileInstalls = "dynopt_compile_installs"
	mCompileCancels  = "dynopt_compile_cancels"
	mMemoHits        = "dynopt_memo_hits"
	mMemoMisses      = "dynopt_memo_misses"
	mMemoEvictions   = "dynopt_memo_evictions"
	gCompileQueue    = "compile_queue_depth"
	gMemoSize        = "compile_memo_size"

	// Host-fault and health instruments, registered only when host chaos
	// or the health controller is configured on (same golden-snapshot
	// discipline as above).
	mHostFaults       = "dynopt_host_faults"
	mQuarantines      = "dynopt_quarantined"
	mHealthDemotions  = "dynopt_health_demotions"
	mHealthPromotions = "dynopt_health_promotions"
	gHealthLevel      = "health_level"

	hRollbackCost   = "rollback_cost_cycles"
	hRegionSize     = "region_size_ops"
	hAliasRegs      = "alias_regs_working_set"
	hOccupancy      = "queue_occupancy"
	hCompile        = "compile_cycles"
	hCompileLatency = "compile_latency_cycles"

	// Observability-plane additions: install-to-dispatch lag is always
	// registered with metrics on; dedupe-wait only with a shared cache
	// (same conditional-registration discipline as the instruments above).
	hInstallLag = "install_dispatch_lag_cycles"
	hDedupeWait = "dedupe_wait_cycles"
	mTierFamily = "dynopt_tier_dispatches"
)

// systemTelemetry is the per-System view of an enabled telemetry bundle:
// the tracer plus every instrument resolved once at construction so the
// hot path never touches the registry.
type systemTelemetry struct {
	tr *telemetry.Tracer

	commits         *telemetry.Counter
	rollbacks       *telemetry.Counter
	aliasExceptions *telemetry.Counter
	guardFails      *telemetry.Counter
	faults          *telemetry.Counter
	compiles        *telemetry.Counter
	recompiles      *telemetry.Counter
	evictions       *telemetry.Counter
	demotions       *telemetry.Counter
	promotions      *telemetry.Counter
	drops           *telemetry.Counter
	chaos           *telemetry.Counter
	dispatches      *telemetry.Counter

	rollbackCost *telemetry.Histogram
	regionSize   *telemetry.Histogram
	aliasRegs    *telemetry.Histogram
	occupancy    *telemetry.Histogram
	compileCost  *telemetry.Histogram

	// installLag tracks simulated cycles between a compiled region being
	// installed in the code cache and its first dispatch. tierDispatches
	// splits the dispatch count by speculation tier as labeled series
	// (dynopt_tier_dispatches{tier="..."}); instruments are resolved per
	// rung at construction so the hot path stays one array index plus an
	// atomic add.
	installLag     *telemetry.Histogram
	tierDispatches [NumTiers]*telemetry.Counter

	// Background-compilation instruments (nil — and therefore inert —
	// unless the feature is configured on).
	compileEnqueues *telemetry.Counter
	compileInstalls *telemetry.Counter
	compileCancels  *telemetry.Counter
	memoHits        *telemetry.Counter
	memoMisses      *telemetry.Counter
	memoEvictions   *telemetry.Counter
	queueDepth      *telemetry.Gauge
	memoSize        *telemetry.Gauge
	compileLatency  *telemetry.Histogram

	// dedupeWait tracks how long a deduped background compile waited on
	// the cross-tenant flight it joined (nil without a shared cache).
	dedupeWait *telemetry.Histogram

	// Host-fault and health instruments (nil unless host chaos or the
	// health controller is on).
	hostFaults       *telemetry.Counter
	quarantines      *telemetry.Counter
	healthDemotions  *telemetry.Counter
	healthPromotions *telemetry.Counter
	healthLevel      *telemetry.Gauge

	// lastMemoEvictions is the memo's eviction count at the last memoTable
	// call: capacity evictions happen inside codecache's Put, which has no
	// telemetry access, so the counter is synced by diffing.
	lastMemoEvictions int64
}

// newSystemTelemetry resolves instruments against the bundle. Returns nil
// when the bundle is nil or empty, so System.tel stays a single nil check.
func newSystemTelemetry(cfg *Config) *systemTelemetry {
	t, cc := cfg.Telemetry, cfg.Compile
	if t == nil || (t.Events == nil && t.Metrics == nil) {
		return nil
	}
	reg := t.Metrics // nil Registry hands out nil (inert) instruments
	st := &systemTelemetry{
		tr: t.Events,

		commits:         reg.Counter(mCommits),
		rollbacks:       reg.Counter(mRollbacks),
		aliasExceptions: reg.Counter(mAliasExceptions),
		guardFails:      reg.Counter(mGuardFails),
		faults:          reg.Counter(mFaults),
		compiles:        reg.Counter(mCompiles),
		recompiles:      reg.Counter(mRecompiles),
		evictions:       reg.Counter(mEvictions),
		demotions:       reg.Counter(mDemotions),
		promotions:      reg.Counter(mPromotions),
		drops:           reg.Counter(mDrops),
		chaos:           reg.Counter(mChaos),
		dispatches:      reg.Counter(mDispatches),

		rollbackCost: reg.Histogram(hRollbackCost, telemetry.Pow2Bounds(16, 1024)),
		regionSize:   reg.Histogram(hRegionSize, telemetry.Pow2Bounds(4, 256)),
		aliasRegs:    reg.Histogram(hAliasRegs, telemetry.Pow2Bounds(1, 64)),
		occupancy:    reg.Histogram(hOccupancy, telemetry.Pow2Bounds(1, 64)),
		compileCost:  reg.Histogram(hCompile, telemetry.Pow2Bounds(64, 4096)),

		installLag: reg.Histogram(hInstallLag, telemetry.Pow2Bounds(64, 65536)),
	}
	for tier := 0; tier < NumTiers; tier++ {
		st.tierDispatches[tier] = reg.Counter(telemetry.Labeled(
			mTierFamily, telemetry.Label{Name: "tier", Value: Tier(tier).String()}))
	}
	// Conditional registration: the -metrics snapshot includes every
	// registered key (even zero-valued), so runs without the feature must
	// not grow new keys.
	if cc.Workers > 0 {
		st.compileEnqueues = reg.Counter(mCompileEnqueues)
		st.compileInstalls = reg.Counter(mCompileInstalls)
		st.compileCancels = reg.Counter(mCompileCancels)
		st.queueDepth = reg.Gauge(gCompileQueue)
		st.compileLatency = reg.Histogram(hCompileLatency, telemetry.Pow2Bounds(256, 65536))
	}
	if cc.Memoize || cc.SharedCache != nil {
		// Fleet-cache lookups count in the same hit/miss instruments; the
		// table-size gauge and eviction counter stay zero there (the
		// fleet-global view is codecache's PublishMetrics).
		st.memoHits = reg.Counter(mMemoHits)
		st.memoMisses = reg.Counter(mMemoMisses)
		st.memoEvictions = reg.Counter(mMemoEvictions)
		st.memoSize = reg.Gauge(gMemoSize)
	}
	if cc.SharedCache != nil {
		st.dedupeWait = reg.Histogram(hDedupeWait, telemetry.Pow2Bounds(64, 65536))
	}
	if cfg.Chaos.HostEnabled() || cfg.Health.Enabled() {
		st.hostFaults = reg.Counter(mHostFaults)
		st.quarantines = reg.Counter(mQuarantines)
	}
	if cfg.Health.Enabled() {
		st.healthDemotions = reg.Counter(mHealthDemotions)
		st.healthPromotions = reg.Counter(mHealthPromotions)
		st.healthLevel = reg.Gauge(gHealthLevel)
	}
	return st
}

// now is the simulated cycle clock events are stamped with: the sum of
// the per-category cycle accounts, which only ever grows as the run
// proceeds (TotalCycles itself is derived once in finalize).
func (s *System) now() int64 {
	st := &s.Stats
	return st.InterpCycles + st.RegionCycles + st.RollbackCycles +
		st.OptCycles + st.SchedCycles
}

func (st *systemTelemetry) regionCompile(cycle int64, entry int, tier Tier, recompile bool, rs *RegionStats) {
	if st == nil {
		return
	}
	if recompile {
		st.recompiles.Add(1)
	} else {
		st.compiles.Add(1)
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

// compileEnqueue records a background compilation entering the queue:
// cost is the modelled latency, depth the queue depth after the enqueue,
// memoHit whether the cache already held the result (counted by
// memoLookup).
func (st *systemTelemetry) compileEnqueue(cycle int64, entry int, tier Tier, cost int64, depth int, memoHit bool) {
	if st == nil {
		return
	}
	st.compileEnqueues.Add(1)
	st.queueDepth.Set(int64(depth))
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindCompileEnqueue,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cost: cost, A: int64(depth), B: b2i(memoHit),
	})
}

// compileInstalled records the metrics side of an install (the event side
// is the existing KindCompile emitted by regionCompile).
func (st *systemTelemetry) compileInstalled(latency int64, depth int) {
	if st == nil {
		return
	}
	st.compileInstalls.Add(1)
	st.compileLatency.Observe(latency)
	st.queueDepth.Set(int64(depth))
}

// memoLookup counts a compile-output cache lookup (System.lookupOutput,
// both compile paths).
func (st *systemTelemetry) memoLookup(hit bool) {
	if st == nil {
		return
	}
	if hit {
		st.memoHits.Add(1)
	} else {
		st.memoMisses.Add(1)
	}
}

// compileCancel records a pending compilation being thrown away.
func (st *systemTelemetry) compileCancel(cycle int64, entry int, tier Tier, cause telemetry.Cause, depth int) {
	if st == nil {
		return
	}
	st.compileCancels.Add(1)
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
	st.dispatches.Add(1)
	st.tierDispatches[tier].Add(1)
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

// dedupeWaited records how long a deduped background compile sat behind
// the cross-tenant flight that produced its code.
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
	st.commits.Add(1)
	st.occupancy.Observe(int64(arHighWater))
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindCommit,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cost: cost,
		A:    int64(arHighWater), B: int64(storesBuffered),
	})
}

// rollback is the shared non-commit bookkeeping: every alias, guard and
// fault outcome routes through it.
func (st *systemTelemetry) rollback(cycle int64, entry int, tier Tier, cause telemetry.Cause, cost int64, opsExecuted int) {
	st.rollbacks.Add(1)
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
	st.aliasExceptions.Add(1)
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
	st.guardFails.Add(1)
	st.rollback(cycle, entry, tier, cause, cost, opsExecuted)
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindGuardFail,
		Region: int32(entry), Tier: int8(tier), To: -1,
		A: int64(streak),
	})
}

// faultRollback records a speculation-induced guest fault.
func (st *systemTelemetry) faultRollback(cycle int64, entry int, tier Tier, cost int64, opsExecuted int) {
	if st == nil {
		return
	}
	st.faults.Add(1)
	st.rollback(cycle, entry, tier, telemetry.CauseFault, cost, opsExecuted)
}

// tierMove emits one ladder move. from/to are the rungs on either side;
// cause qualifies demotions (CauseNone for promotions). Demotions may
// jump several rungs (the chronic cap); the counter tracks rungs moved so
// it matches Stats.Recovery.Demotions, while promotions are always single
// steps.
func (st *systemTelemetry) tierMove(cycle int64, entry int, from, to Tier, cause telemetry.Cause) {
	if st == nil || from == to {
		return
	}
	kind := telemetry.KindDemote
	if to < from {
		kind = telemetry.KindPromote
		st.promotions.Add(1)
	} else {
		st.demotions.Add(int64(to - from))
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
	st.evictions.Add(1)
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindEvict,
		Region: int32(entry), Tier: int8(tier), To: -1,
	})
}

func (st *systemTelemetry) drop(cycle int64, entry int, tier Tier, cause telemetry.Cause) {
	if st == nil {
		return
	}
	st.drops.Add(1)
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindDrop,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause,
	})
}

func (st *systemTelemetry) chaosInjected(cycle int64, entry int, tier Tier, cause telemetry.Cause) {
	if st == nil {
		return
	}
	st.chaos.Add(1)
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindChaos,
		Region: int32(entry), Tier: int8(tier), To: -1,
		Cause: cause,
	})
}

// hostFault records one contained host-side compile fault (worker panic,
// watchdog kill, rejected poisoned result).
func (st *systemTelemetry) hostFault(cycle int64, entry int, tier Tier, cause telemetry.Cause) {
	if st == nil {
		return
	}
	st.hostFaults.Add(1)
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
	st.quarantines.Add(1)
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
	if mv.To > mv.From {
		st.healthDemotions.Add(1)
	} else {
		st.healthPromotions.Add(1)
	}
	st.healthLevel.Set(int64(mv.To))
	st.tr.Emit(telemetry.Event{
		Cycle: cycle, Kind: telemetry.KindHealth,
		Region: -1, Tier: -1, To: -1,
		A: int64(mv.From), B: int64(mv.To),
		Cause: cause,
	})
}

// memoTable refreshes the memo-size gauge and eviction counter after a
// memo mutation (an insert past capacity, or injected memo pressure).
func (st *systemTelemetry) memoTable(size int, evictions int64) {
	if st == nil {
		return
	}
	st.memoSize.Set(int64(size))
	if d := evictions - st.lastMemoEvictions; d > 0 {
		st.memoEvictions.Add(d)
		st.lastMemoEvictions = evictions
	}
}
