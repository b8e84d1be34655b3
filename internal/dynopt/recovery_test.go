package dynopt

import (
	"strings"
	"testing"

	"smarq/internal/codecache"
	"smarq/internal/compilequeue"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/sched"
)

func TestRecoveryConfigValidate(t *testing.T) {
	if err := DefaultRecoveryConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutate := func(f func(*RecoveryConfig)) RecoveryConfig {
		c := DefaultRecoveryConfig()
		f(&c)
		return c
	}
	bad := map[string]RecoveryConfig{
		"zero-max-exceptions": mutate(func(c *RecoveryConfig) { c.MaxExceptionsPerRegion = 0 }),
		"zero-window":         mutate(func(c *RecoveryConfig) { c.Window = 0 }),
		"demote-over-window":  mutate(func(c *RecoveryConfig) { c.DemoteThreshold = c.Window + 1 }),
		"zero-demote":         mutate(func(c *RecoveryConfig) { c.DemoteThreshold = 0 }),
		"zero-storm":          mutate(func(c *RecoveryConfig) { c.StormThreshold = 0 }),
		"zero-promote":        mutate(func(c *RecoveryConfig) { c.PromoteAfter = 0 }),
		"backoff-one":         mutate(func(c *RecoveryConfig) { c.BackoffFactor = 1 }),
		"zero-max-backoff":    mutate(func(c *RecoveryConfig) { c.MaxBackoff = 0 }),
		"zero-cache":          mutate(func(c *RecoveryConfig) { c.CodeCacheCapacity = 0 }),
	}
	for name, c := range bad {
		if c.Validate() == nil {
			t.Errorf("%s accepted: %+v", name, c)
		}
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
	guards := DefaultConfig()
	guards.MaxGuardFails = 0
	if guards.Validate() == nil {
		t.Error("MaxGuardFails=0 accepted")
	}
	ladder := DefaultConfig()
	ladder.Recovery.BackoffFactor = 1
	if ladder.Validate() == nil {
		t.Error("BackoffFactor=1 accepted")
	}
	chaos := DefaultConfig()
	chaos.Chaos.SpuriousAliasRate = 2
	if chaos.Validate() == nil {
		t.Error("SpuriousAliasRate=2 accepted")
	}
	// Fleet resources only exist on the background path.
	syncPool := DefaultConfig()
	syncPool.Compile.SharedPool = compilequeue.NewPool(1)
	defer syncPool.Compile.SharedPool.Close()
	if syncPool.Validate() == nil {
		t.Error("SharedPool with Workers=0 accepted")
	}
	syncCache := DefaultConfig()
	syncCache.Compile.SharedCache = NewCodeCache(codecache.Options{})
	if syncCache.Validate() == nil {
		t.Error("SharedCache with Workers=0 accepted")
	}
	fleet := syncCache
	fleet.Compile.Workers = 1
	if err := fleet.Validate(); err != nil {
		t.Errorf("SharedCache with Workers=1 rejected: %v", err)
	}
	// The zero Recovery value means defaults, so it must validate.
	zeroRec := DefaultConfig()
	zeroRec.Recovery = RecoveryConfig{}
	if err := zeroRec.Validate(); err != nil {
		t.Errorf("zero Recovery rejected: %v", err)
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted an invalid config")
		}
	}()
	cfg := Config{Mode: sched.HWOrdered, NumAliasRegs: 1, HotThreshold: 50, MaxGuardFails: 8}
	New(sumLoopProgram(10), &guest.State{}, guest.NewMemory(1<<12), cfg)
}

func TestLadderStormDemotes(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	rr := newRegionRecord(cfg)
	for i := 0; i < cfg.StormThreshold-1; i++ {
		if rr.recordRollback(cfg) {
			t.Fatalf("demoted after %d rollbacks, storm threshold is %d", i+1, cfg.StormThreshold)
		}
	}
	if !rr.recordRollback(cfg) {
		t.Fatal("storm threshold reached without demotion")
	}
	if rr.tier != TierNoStoreReorder {
		t.Errorf("tier = %v after one demotion, want %v", rr.tier, TierNoStoreReorder)
	}
	if rr.backoff != cfg.BackoffFactor {
		t.Errorf("backoff = %d after one demotion, want %d", rr.backoff, cfg.BackoffFactor)
	}
}

func TestLadderWindowDemotes(t *testing.T) {
	// Rollbacks interleaved with commits: the storm detector never fires
	// (consec resets each commit) but the window rate accumulates.
	cfg := DefaultRecoveryConfig()
	rr := newRegionRecord(cfg)
	demoted := false
	for i := 0; i < cfg.DemoteThreshold && !demoted; i++ {
		rr.recordCommit(cfg)
		demoted = rr.recordRollback(cfg)
	}
	if !demoted {
		t.Fatalf("window rate %d/%d never demoted", cfg.DemoteThreshold, 2*cfg.DemoteThreshold)
	}
	if rr.consec >= cfg.StormThreshold {
		t.Fatal("test invalid: the storm detector fired, not the window")
	}
	if rr.tier != TierNoStoreReorder {
		t.Errorf("tier = %v, want %v", rr.tier, TierNoStoreReorder)
	}
}

func TestHardeningRollbacksNeverDemote(t *testing.T) {
	// Blacklist-convergence bursts — every rollback hardens a fresh pair —
	// must leave the ladder alone no matter how long they run.
	cfg := DefaultRecoveryConfig()
	rr := newRegionRecord(cfg)
	for i := 0; i < 10*cfg.Window; i++ {
		rr.recordHardeningRollback()
	}
	if rr.tier != TierFull || rr.demotions != 0 {
		t.Errorf("tier = %v, demotions = %d after hardening rollbacks, want full/0", rr.tier, rr.demotions)
	}
	// But they do interrupt a clean-commit promotion run.
	rr.tier = TierNoElim
	for i := 0; i < cfg.PromoteAfter-1; i++ {
		rr.recordCommit(cfg)
	}
	rr.recordHardeningRollback()
	if rr.recordCommit(cfg) {
		t.Error("promotion run survived a hardening rollback")
	}
}

func TestLadderPromotionWithBackoff(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	rr := newRegionRecord(cfg)
	for i := 0; i < cfg.StormThreshold; i++ {
		rr.recordRollback(cfg)
	}
	if rr.tier != TierNoStoreReorder {
		t.Fatalf("setup: tier = %v", rr.tier)
	}
	// One demotion doubled the backoff: promotion needs PromoteAfter *
	// BackoffFactor clean commits, not PromoteAfter.
	need := cfg.PromoteAfter * cfg.BackoffFactor
	for i := 0; i < need-1; i++ {
		if rr.recordCommit(cfg) {
			t.Fatalf("promoted after %d clean commits, want %d", i+1, need)
		}
	}
	if !rr.recordCommit(cfg) {
		t.Fatalf("no promotion after %d clean commits", need)
	}
	if rr.tier != TierFull {
		t.Errorf("tier = %v after promotion, want %v", rr.tier, TierFull)
	}
	if rr.transitions() != 2 {
		t.Errorf("transitions = %d, want 2", rr.transitions())
	}
}

func TestLadderStickyBoundsTransitions(t *testing.T) {
	// An oscillating region — storm, climb back, storm again — is the
	// livelock shape: each oscillation doubles the backoff until it
	// exhausts MaxBackoff and the region goes sticky forever.
	cfg := DefaultRecoveryConfig()
	rr := newRegionRecord(cfg)
	for round := 0; !rr.sticky; round++ {
		if round > maxDemotionsBound(cfg) {
			t.Fatalf("no stickiness after %d oscillations (backoff=%d)", round, rr.backoff)
		}
		for i := 0; i < cfg.StormThreshold; i++ {
			rr.recordRollback(cfg)
		}
		for i := 0; rr.tier != TierFull && !rr.sticky; i++ {
			if i > 100*cfg.PromoteAfter*cfg.MaxBackoff {
				t.Fatal("region stuck below TierFull while promotable")
			}
			rr.recordCommit(cfg)
		}
	}
	before := rr.transitions()
	tier := rr.tier
	for i := 0; i < 2*cfg.PromoteAfter*cfg.MaxBackoff; i++ {
		if rr.recordCommit(cfg) || rr.recordPinnedEntry(cfg) {
			t.Fatal("sticky region promoted")
		}
	}
	if rr.transitions() != before || rr.tier != tier {
		t.Errorf("sticky region still moved: %d -> %d transitions, tier %v -> %v",
			before, rr.transitions(), tier, rr.tier)
	}
	if before > 2*maxDemotionsBound(cfg) {
		t.Errorf("transitions = %d exceeds the ladder bound %d", before, 2*maxDemotionsBound(cfg))
	}
}

// TestLadderFloorStopsDemoting: a pinned region is already at the floor;
// further rollbacks are absorbed without counter churn.
func TestLadderFloorStopsDemoting(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	rr := newRegionRecord(cfg)
	for i := 0; i < 100*cfg.StormThreshold; i++ {
		rr.recordRollback(cfg)
	}
	if rr.tier != TierPinned {
		t.Fatalf("tier = %v after sustained rollbacks, want %v", rr.tier, TierPinned)
	}
	if rr.demotions != NumTiers-1 {
		t.Errorf("demotions = %d walking the full ladder, want %d", rr.demotions, NumTiers-1)
	}
}

// maxDemotionsBound is the analytic ceiling on demotions per region: each
// demotion multiplies the backoff by BackoffFactor and past MaxBackoff the
// region is sticky (no more promotions), after which at most NumTiers-1
// further demotions can happen before the floor.
func maxDemotionsBound(cfg RecoveryConfig) int {
	n := 0
	for b := 1; b <= cfg.MaxBackoff; b *= cfg.BackoffFactor {
		n++
	}
	return n + NumTiers - 1
}

func TestDemoteToJumps(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	rr := newRegionRecord(cfg)
	if !rr.demoteTo(cfg, TierConservative) {
		t.Fatal("demoteTo reported no change from TierFull")
	}
	if rr.tier != TierConservative || rr.demotions != int(TierConservative) {
		t.Errorf("tier = %v demotions = %d, want %v/%d", rr.tier, rr.demotions, TierConservative, int(TierConservative))
	}
	if rr.demoteTo(cfg, TierConservative) {
		t.Error("demoteTo reported a change when already at the target")
	}
}

func TestPinnedEntryRepromotes(t *testing.T) {
	cfg := DefaultRecoveryConfig()
	cfg.MaxBackoff = 1 << 20 // keep the region promotable all the way down
	rr := newRegionRecord(cfg)
	rr.demoteTo(cfg, TierPinned)
	if rr.sticky {
		t.Fatal("setup: region went sticky")
	}
	need := cfg.PromoteAfter * rr.backoff
	for i := 0; i < need-1; i++ {
		if rr.recordPinnedEntry(cfg) {
			t.Fatalf("re-promoted after %d interpreted entries, want %d", i+1, need)
		}
	}
	if !rr.recordPinnedEntry(cfg) {
		t.Fatal("pinned region never re-promoted")
	}
	if rr.tier != TierConservative {
		t.Errorf("tier = %v after un-pinning, want %v", rr.tier, TierConservative)
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
// answer. Eviction removes only the code: an evicted region keeps its
// record, so its next install re-installs its build without running the
// pipeline.
func TestCodeCacheEviction(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Recovery.CodeCacheCapacity = 1
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
		if de.code == nil && de.rec != nil && sys.installRecordOf(i).out != nil {
			e = i
			break
		}
	}
	if e < 0 {
		t.Fatal("no evicted region kept its install record")
	}
	last := sys.installRecordOf(e)
	runs := countPipelineRuns(t)
	if err := sys.requestCompile(e); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 0 {
		t.Errorf("re-installing evicted B%d ran the pipeline %d times, want 0", e, runs.Load())
	}
	if c := sys.disp[e].code; c == nil || c.cr != last.out.cr {
		t.Errorf("evicted B%d did not re-install its recorded build", e)
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
	bound := maxDemotionsBound(cfg.Recovery) * 2 // promotions <= demotions
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
