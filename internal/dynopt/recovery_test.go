package dynopt

import (
	"strings"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/health"
	"smarq/internal/sched"
	"smarq/internal/telemetry"
)

// TestRegionPolicyValid: the region ladder's fixed tuning passes the one
// policy validation the health controller's tuning does.
func TestRegionPolicyValid(t *testing.T) {
	if err := regionPolicy.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	tooFew := DefaultConfig()
	tooFew.NumAliasRegs = 1
	if tooFew.Validate() == nil {
		t.Error("NumAliasRegs=1 accepted for the ordered queue")
	}
	// ALAT ignores NumAliasRegs, so 0 is fine there.
	alat := ConfigALAT()
	alat.NumAliasRegs = 0
	if err := alat.Validate(); err != nil {
		t.Errorf("ALAT with NumAliasRegs=0 rejected: %v", err)
	}
	cold := DefaultConfig()
	cold.HotThreshold = 0
	if cold.Validate() == nil {
		t.Error("HotThreshold=0 accepted")
	}
	cache := DefaultConfig()
	cache.CodeCacheCapacity = -1
	if cache.Validate() == nil {
		t.Error("CodeCacheCapacity=-1 accepted")
	}
	perInst := DefaultConfig()
	perInst.Machine.CompileCyclesPerInst = -1
	if perInst.Validate() == nil {
		t.Error("Machine.CompileCyclesPerInst=-1 accepted")
	}
	perCheck := DefaultConfig()
	perCheck.Machine.CompileCyclesPerCheck = -1
	if perCheck.Validate() == nil {
		t.Error("Machine.CompileCyclesPerCheck=-1 accepted")
	}
	free := DefaultConfig()
	free.Machine.CompileCyclesPerInst, free.Machine.CompileCyclesPerCheck = 0, 0
	if err := free.Validate(); err != nil {
		t.Errorf("zero compile cost rejected: %v", err)
	}
	chaos := DefaultConfig()
	chaos.Chaos.SpuriousAliasRate = 2
	if chaos.Validate() == nil {
		t.Error("SpuriousAliasRate=2 accepted")
	}
	// A shared cache serves every compile, including one that installs
	// at its request.
	syncCache := DefaultConfig()
	syncCache.Compile.SharedCache = NewCodeCache(0)
	if err := syncCache.Validate(); err != nil {
		t.Errorf("SharedCache with Workers=0 rejected: %v", err)
	}
	fleet := syncCache
	fleet.Compile.Workers = 1
	if err := fleet.Validate(); err != nil {
		t.Errorf("SharedCache with Workers=1 rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid config")
		}
	}()
	cfg := Config{Mode: sched.HWOrdered, NumAliasRegs: 1, HotThreshold: 50}
	New(sumLoopProgram(10), &guest.State{}, guest.NewMemory(1<<12), cfg)
}

func TestLadderStormDemotes(t *testing.T) {
	p := regionPolicy
	rr := newRegionRecord()
	for i := 0; i < p.Storm-1; i++ {
		if rr.Fault(p, 1) {
			t.Fatalf("demoted after %d rollbacks, storm threshold is %d", i+1, p.Storm)
		}
	}
	if !rr.Fault(p, 1) {
		t.Fatal("storm threshold reached without demotion")
	}
	if rr.Level != TierNoStoreReorder {
		t.Errorf("tier = %v after one demotion, want %v", rr.Level, TierNoStoreReorder)
	}
	if rr.Backoff != p.BackoffFactor {
		t.Errorf("backoff = %d after one demotion, want %d", rr.Backoff, p.BackoffFactor)
	}
}

func TestLadderWindowDemotes(t *testing.T) {
	// Rollbacks interleaved with commits: the storm detector never fires
	// (consec resets each commit) but the window rate accumulates.
	p := regionPolicy
	rr := newRegionRecord()
	for i := 1; i <= p.DemoteThreshold; i++ {
		rr.Clean(p)
		if demoted := rr.Fault(p, 1); demoted != (i == p.DemoteThreshold) {
			t.Fatalf("rollback %d of %d in the window: demoted=%v", i, p.DemoteThreshold, demoted)
		}
	}
	if rr.Level != TierNoStoreReorder {
		t.Errorf("tier = %v, want %v", rr.Level, TierNoStoreReorder)
	}
}

func TestHardeningRollbacksNeverDemote(t *testing.T) {
	// Blacklist-convergence bursts — every rollback hardens a fresh pair —
	// must leave the ladder alone no matter how long they run.
	p := regionPolicy
	rr := newRegionRecord()
	for i := 0; i < 10*p.Window; i++ {
		rr.ResetRun()
	}
	if rr.Level != TierFull || rr.Demotions != 0 {
		t.Errorf("tier = %v, demotions = %d after hardening rollbacks, want full/0", rr.Level, rr.Demotions)
	}
	// They stay out of the window and the storm detector: one
	// unproductive rollback after the burst is still just one.
	if rr.Fault(p, 1) {
		t.Error("one rollback after a hardening burst demoted")
	}
	// But they do interrupt a clean-commit promotion run.
	rr.Level = TierNoElim
	for i := 0; i < p.PromoteAfter-1; i++ {
		rr.Clean(p)
	}
	rr.ResetRun()
	if rr.Clean(p) {
		t.Error("promotion run survived a hardening rollback")
	}
}

func TestLadderPromotionWithBackoff(t *testing.T) {
	p := regionPolicy
	rr := newRegionRecord()
	for i := 0; i < p.Storm; i++ {
		rr.Fault(p, 1)
	}
	if rr.Level != TierNoStoreReorder {
		t.Fatalf("setup: tier = %v", rr.Level)
	}
	// One demotion doubled the backoff: promotion needs PromoteAfter *
	// BackoffFactor clean commits, not PromoteAfter.
	need := p.PromoteAfter * p.BackoffFactor
	for i := 0; i < need-1; i++ {
		if rr.Clean(p) {
			t.Fatalf("promoted after %d clean commits, want %d", i+1, need)
		}
	}
	if !rr.Clean(p) {
		t.Fatalf("no promotion after %d clean commits", need)
	}
	if rr.Level != TierFull {
		t.Errorf("tier = %v after promotion, want %v", rr.Level, TierFull)
	}
	if rr.Demotions != 1 || rr.Promotions != 1 {
		t.Errorf("%d demotions, %d promotions, want 1 and 1", rr.Demotions, rr.Promotions)
	}
}

func TestLadderStickyBoundsTransitions(t *testing.T) {
	// An oscillating region — storm, climb back, storm again — is the
	// livelock shape: each oscillation doubles the backoff until it
	// exhausts MaxBackoff and the region goes sticky forever.
	p := regionPolicy
	rr := newRegionRecord()
	for round := 0; !rr.Sticky; round++ {
		if round > maxDemotionsBound(p) {
			t.Fatalf("no stickiness after %d oscillations (backoff=%d)", round, rr.Backoff)
		}
		for i := 0; i < p.Storm; i++ {
			rr.Fault(p, 1)
		}
		for i := 0; rr.Level != TierFull && !rr.Sticky; i++ {
			if i > 100*p.PromoteAfter*p.MaxBackoff {
				t.Fatal("region stuck below TierFull while promotable")
			}
			rr.Clean(p)
		}
	}
	before := rr.Demotions + rr.Promotions
	tier := rr.Level
	for i := 0; i < 2*p.PromoteAfter*p.MaxBackoff; i++ {
		if rr.Clean(p) || rr.Clean(p) {
			t.Fatal("sticky region promoted")
		}
	}
	if after := rr.Demotions + rr.Promotions; after != before || rr.Level != tier {
		t.Errorf("sticky region still moved: %d -> %d transitions, tier %v -> %v",
			before, after, tier, rr.Level)
	}
	if before > 2*maxDemotionsBound(p) {
		t.Errorf("transitions = %d exceeds the ladder bound %d", before, 2*maxDemotionsBound(p))
	}
}

// TestLadderFloorStopsDemoting: a pinned region is already at the floor;
// further rollbacks are absorbed without counter churn.
func TestLadderFloorStopsDemoting(t *testing.T) {
	p := regionPolicy
	rr := newRegionRecord()
	for i := 0; i < 100*p.Storm; i++ {
		rr.Fault(p, 1)
	}
	if rr.Level != TierPinned {
		t.Fatalf("tier = %v after sustained rollbacks, want %v", rr.Level, TierPinned)
	}
	if rr.Demotions != NumTiers-1 {
		t.Errorf("demotions = %d walking the full ladder, want %d", rr.Demotions, NumTiers-1)
	}
}

// maxDemotionsBound is the analytic ceiling on demotions per region: each
// demotion multiplies the backoff by BackoffFactor and past MaxBackoff the
// region is sticky (no more promotions), after which at most NumTiers-1
// further demotions can happen before the floor.
func maxDemotionsBound(p health.Policy) int {
	n := 0
	for b := 1; b <= p.MaxBackoff; b *= p.BackoffFactor {
		n++
	}
	return n + NumTiers - 1
}

func TestDemoteToJumps(t *testing.T) {
	p := regionPolicy
	rr := newRegionRecord()
	if n := rr.DemoteTo(p, TierConservative); n != int(TierConservative) {
		t.Fatalf("DemoteTo moved %d rungs from TierFull, want %d", n, int(TierConservative))
	}
	if rr.Level != TierConservative || rr.Demotions != int(TierConservative) {
		t.Errorf("tier = %v demotions = %d, want %v/%d", rr.Level, rr.Demotions, TierConservative, int(TierConservative))
	}
	// Every rung passed multiplies the backoff, as a demotion does.
	if want := p.BackoffFactor * p.BackoffFactor * p.BackoffFactor; rr.Backoff != want {
		t.Errorf("backoff = %d after a 3-rung jump, want %d", rr.Backoff, want)
	}
	if rr.DemoteTo(p, TierConservative) != 0 {
		t.Error("DemoteTo moved when already at the target")
	}
}

func TestPinnedEntryRepromotes(t *testing.T) {
	p := regionPolicy
	p.MaxBackoff = 1 << 20 // keep the region promotable all the way down
	rr := newRegionRecord()
	rr.DemoteTo(p, TierPinned)
	if rr.Sticky {
		t.Fatal("setup: region went sticky")
	}
	need := p.PromoteAfter * rr.Backoff
	for i := 0; i < need-1; i++ {
		if rr.Clean(p) {
			t.Fatalf("re-promoted after %d interpreted entries, want %d", i+1, need)
		}
	}
	if !rr.Clean(p) {
		t.Fatal("pinned region never re-promoted")
	}
	if rr.Level != TierConservative {
		t.Errorf("tier = %v after un-pinning, want %v", rr.Level, TierConservative)
	}
}

// TestChronicOffenderCap drives spurious alias exceptions through an
// installed region whose record is seeded at the chronic-offender cap.
// At exactly the cap nothing jumps; one exception past it the region
// lands on TierConservative, sticky, with one CauseChronic tier move; a
// region already at TierConservative does not move. Each ladder starts
// fresh, so the jump's own backoff (8) leaves the region promotable and
// only the cap can make it sticky.
func TestChronicOffenderCap(t *testing.T) {
	sys, e := installedSystem(t, 0)
	tr := telemetry.NewTracer(0, nil)
	sys.tel = newSystemTelemetry(&Config{Telemetry: &telemetry.Telemetry{Events: tr}})
	sys.inj = faultinject.New(faultinject.Config{Seed: 1, SpuriousAliasRate: 1})
	rr := sys.disp[e].rec
	chronic := func() int {
		n := 0
		for _, ev := range tr.Events() {
			if ev.Kind == telemetry.KindDemote && ev.Cause == telemetry.CauseChronic {
				n++
			}
		}
		return n
	}
	except := func() {
		t.Helper()
		c := sys.disp[e].code
		if c == nil {
			t.Fatal("region has no installed code to dispatch")
		}
		sys.runRegion(e, c)
	}

	rr.Ladder = health.NewLadder[Tier](regionPolicy)
	rr.exceptions = maxExceptionsPerRegion - 1
	except()
	if rr.exceptions != maxExceptionsPerRegion || rr.Level != TierFull || rr.Sticky || chronic() != 0 {
		t.Fatalf("at the cap (%d exceptions): tier %v sticky=%v, %d chronic moves; want full, not sticky, none",
			rr.exceptions, rr.Level, rr.Sticky, chronic())
	}
	demotions := sys.Stats.Recovery.Demotions
	except()
	if rr.Level != TierConservative || !rr.Sticky || chronic() != 1 {
		t.Fatalf("past the cap: tier %v sticky=%v, %d chronic moves; want conservative, sticky, 1",
			rr.Level, rr.Sticky, chronic())
	}
	if got := sys.Stats.Recovery.Demotions - demotions; got != int64(TierConservative) {
		t.Errorf("the jump counted %d demotions, want one per rung (%d)", got, int(TierConservative))
	}

	rr.Ladder = health.NewLadder[Tier](regionPolicy)
	rr.DemoteTo(regionPolicy, TierConservative)
	rr.exceptions = maxExceptionsPerRegion
	except()
	if rr.Level != TierConservative || rr.Sticky || chronic() != 1 {
		t.Errorf("already conservative, past the cap: tier %v sticky=%v, %d chronic moves; want conservative, not sticky, 1",
			rr.Level, rr.Sticky, chronic())
	}
}

func TestTierString(t *testing.T) {
	for ti := 0; ti < NumTiers; ti++ {
		if Tier(ti).String() == "" || strings.HasPrefix(Tier(ti).String(), "tier(") {
			t.Errorf("Tier(%d) has no name", ti)
		}
	}
	if Tier(99).String() != "tier(99)" {
		t.Errorf("out-of-range tier string = %q", Tier(99).String())
	}
}

// TestCodeCacheEviction: with a one-region cache, a program with two hot
// loops keeps evicting and re-installing — and still computes the right
// answer. Eviction removes only the code: an evicted region's build stays
// in the output store, so its next install re-installs it without running
// the pipeline.
func TestCodeCacheEviction(t *testing.T) {
	runs := countPipelineRuns(t)
	cfg := ConfigSMARQ(64)
	cfg.CodeCacheCapacity = 1
	const memSize = 1 << 16
	sys, ref := runBoth(t, sumLoopProgram(3000), cfg, memSize)
	assertSameState(t, sys, ref, memSize)
	if sys.Stats.RegionsCompiled < 2 {
		t.Skipf("only %d regions compiled; eviction not exercised", sys.Stats.RegionsCompiled)
	}
	if sys.Stats.Recovery.Evictions == 0 {
		t.Error("capacity-1 cache with 2+ regions never evicted")
	}

	e := -1
	for i, de := range sys.disp {
		if de.code == nil && de.rec != nil && de.rec.sb != nil && sys.storedOutput(i) != nil {
			e = i
			break
		}
	}
	if e < 0 {
		t.Fatal("no evicted region's build is stored")
	}
	last := sys.storedOutput(e)
	runs.Store(0)
	lendExec(t, sys)
	if err := sys.requestCompile(e); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Errorf("re-installing evicted B%d ran the pipeline %d times, want 0", e, runs.Load())
	}
	if c := sys.disp[e].code; c == nil || c.out.cr != last.cr {
		t.Errorf("evicted B%d did not re-install its stored build", e)
	}
}

// TestInvariantCheckerCatchesCorruption: with post-rollback corruption
// injected at rate 1, the always-on checker must turn the very first
// rollback into a fatal, named error.
func TestInvariantCheckerCatchesCorruption(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Chaos = faultinject.Config{Seed: 11, SpuriousAliasRate: 0.5, CorruptRate: 1}
	cfg.CheckInvariants = true
	sys := New(sumLoopProgram(2000), &guest.State{}, guest.NewMemory(1<<16), cfg)
	_, err := sys.Run(50_000_000)
	if err == nil {
		t.Fatal("corrupted rollback not surfaced")
	}
	if !strings.Contains(err.Error(), "invariant") {
		t.Errorf("error %q does not name the invariant", err)
	}
	if sys.Stats.Recovery.InvariantViolations == 0 {
		t.Error("InvariantViolations counter not bumped")
	}
}

// TestCompileFailInjection: with compilation failing every time, the
// system must degrade to pure interpretation — and still be correct. The
// failures strike before any region forms, so no ladder starts: the
// failure streaks' records are not regions.
func TestCompileFailInjection(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Chaos = faultinject.Config{Seed: 5, CompileFailRate: 1}
	cfg.CheckInvariants = true
	const memSize = 1 << 16
	sys, ref := runBoth(t, sumLoopProgram(2000), cfg, memSize)
	assertSameState(t, sys, ref, memSize)
	if sys.Stats.RegionsCompiled != 0 {
		t.Errorf("%d regions compiled under CompileFailRate=1", sys.Stats.RegionsCompiled)
	}
	if sys.Stats.Injected.CompileFails == 0 {
		t.Error("no compile failures recorded")
	}
	if got := sys.Stats.Recovery.TierRegions; got != ([NumTiers]int{}) {
		t.Errorf("TierRegions %v with no region formed, want all zero", got)
	}
}

// TestSpuriousAliasStormDemotes: spurious exceptions on every dispatch are
// unproductive rollbacks, so the ladder must walk the region down — and
// the run must stay correct because every injected exception rolls back
// cleanly.
func TestSpuriousAliasStormDemotes(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Chaos = faultinject.Config{Seed: 3, SpuriousAliasRate: 1}
	cfg.CheckInvariants = true
	const memSize = 1 << 16
	sys, ref := runBoth(t, sumLoopProgram(3000), cfg, memSize)
	assertSameState(t, sys, ref, memSize)
	if sys.Stats.Injected.SpuriousAliases == 0 {
		t.Fatal("rate-1 spurious alias never fired")
	}
	if sys.Stats.Recovery.Demotions == 0 {
		t.Error("sustained spurious exceptions never demoted")
	}
	if sys.Stats.Recovery.TierDispatches[TierPinned] == 0 {
		t.Error("no region reached the interpreter pin under a total storm")
	}
	bound := maxDemotionsBound(regionPolicy) * 2 // promotions <= demotions
	for _, rs := range sys.Stats.Regions {
		if rs.Demotions+rs.Promotions > bound {
			t.Errorf("region B%d made %d ladder moves, bound %d",
				rs.Entry, rs.Demotions+rs.Promotions, bound)
		}
	}
}

// TestGuardFailInjection: forced off-trace exits exercise the drop path
// without corrupting state.
func TestGuardFailInjection(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Chaos = faultinject.Config{Seed: 9, GuardFailRate: 1}
	cfg.CheckInvariants = true
	const memSize = 1 << 16
	sys, ref := runBoth(t, sumLoopProgram(2000), cfg, memSize)
	assertSameState(t, sys, ref, memSize)
	if sys.Stats.Injected.GuardFails == 0 {
		t.Error("rate-1 guard fail never fired")
	}
	if sys.Stats.RegionsDropped == 0 {
		t.Error("guard-fail storm never dropped a region")
	}
}

// TestTierAccounting: residency sums to the number of tracked regions and
// every reported tier is in range.
func TestTierAccounting(t *testing.T) {
	cfg := ConfigSMARQ(64)
	const memSize = 1 << 13
	sys, _ := runBoth(t, aliasingProgram(4000, 7), cfg, memSize)
	total := 0
	for _, n := range sys.Stats.Recovery.TierRegions {
		total += n
	}
	tracked := 0
	for i := range sys.disp {
		if rr := sys.disp[i].rec; rr != nil && rr.formed {
			tracked++
		}
	}
	if total != tracked {
		t.Errorf("TierRegions sums to %d, %d regions tracked", total, tracked)
	}
	for _, rs := range sys.Stats.Regions {
		if rs.Tier < 0 || int(rs.Tier) >= NumTiers {
			t.Errorf("region B%d reports tier %d", rs.Entry, rs.Tier)
		}
	}
	var dispatched int64
	for _, n := range sys.Stats.Recovery.TierDispatches {
		dispatched += n
	}
	if want := sys.entrySeq + sys.Stats.Recovery.TierDispatches[TierPinned]; dispatched != want {
		t.Errorf("TierDispatches sums to %d, want %d", dispatched, want)
	}
}
