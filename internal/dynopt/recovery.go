package dynopt

import (
	"fmt"

	"smarq/internal/alias"
	"smarq/internal/region"
)

// Tier is one rung of the per-region speculation ladder. Regions start at
// TierFull and the recovery controller demotes them one rung at a time
// when misspeculation rollbacks (alias exceptions and speculation-induced
// faults) cluster, instead of the one-shot speculate/conservative switch
// the paper's runtime sketches. Higher values speculate less.
type Tier int

const (
	// TierFull is full speculation: reordering, store reordering, and
	// speculative load/store elimination, as the hardware mode allows.
	TierFull Tier = iota
	// TierNoStoreReorder disables speculative store-store reordering.
	TierNoStoreReorder
	// TierNoElim additionally disables speculative load/store
	// elimination; loads may still be hoisted across may-alias stores.
	TierNoElim
	// TierConservative disables speculation entirely: memory operations
	// keep program order, no alias registers are allocated, so the
	// region can no longer raise genuine alias exceptions.
	TierConservative
	// TierPinned drops the region from the code cache: the region is
	// interpreter-pinned and executes no compiled code at all.
	TierPinned
)

// NumTiers is the ladder length.
const NumTiers = int(TierPinned) + 1

var tierNames = [NumTiers]string{
	"full", "no-store-reorder", "no-elim", "conservative", "pinned",
}

// String returns the tier name.
func (t Tier) String() string {
	if t < 0 || int(t) >= NumTiers {
		return fmt.Sprintf("tier(%d)", int(t))
	}
	return tierNames[t]
}

// RecoveryConfig tunes the tiered deoptimization controller and the code
// cache bound. The zero value is replaced by DefaultRecoveryConfig.
type RecoveryConfig struct {
	// MaxExceptionsPerRegion is the chronic-offender cap: a region whose
	// lifetime alias-exception count passes it jumps straight to
	// TierConservative and stops re-promoting. (Formerly the hidden
	// maxExceptionsPerRegion constant.)
	MaxExceptionsPerRegion int
	// Window is the sliding window of region entries over which the
	// controller measures the rollback rate.
	Window int
	// DemoteThreshold demotes one rung when at least this many
	// misspeculation rollbacks land inside the window.
	DemoteThreshold int
	// StormThreshold demotes immediately after this many consecutive
	// misspeculation rollbacks (a rollback storm), regardless of the
	// window rate.
	StormThreshold int
	// PromoteAfter re-promotes a region one rung after this many
	// consecutive clean commits, scaled by the region's current backoff
	// multiplier.
	PromoteAfter int
	// BackoffFactor multiplies the region's promotion backoff on every
	// demotion (exponential backoff); must be >= 2 so oscillation damps.
	BackoffFactor int
	// MaxBackoff caps the backoff multiplier: once a region's backoff
	// exceeds it the region becomes sticky — it stays at its tier and
	// never re-promotes, which bounds the total number of
	// re-optimizations any region can undergo (no livelock).
	MaxBackoff int
	// CodeCacheCapacity bounds how many compiled regions stay installed;
	// inserting past it evicts the least recently dispatched region. It
	// bounds installed code, not the memory behind it: an evicted region
	// keeps its record, including up to NumTiers-1 install records (one
	// build per code tier), until a guard-fail drop clears them.
	CodeCacheCapacity int
}

// DefaultRecoveryConfig returns the standard ladder tuning: tolerant
// enough that a handful of converging alias exceptions (the paper's
// blacklist path) never demotes, aggressive enough that storms reach the
// interpreter within a few windows.
func DefaultRecoveryConfig() RecoveryConfig {
	return RecoveryConfig{
		MaxExceptionsPerRegion: 24,
		Window:                 32,
		DemoteThreshold:        8,
		StormThreshold:         5,
		PromoteAfter:           64,
		BackoffFactor:          2,
		MaxBackoff:             16,
		CodeCacheCapacity:      256,
	}
}

// Validate rejects nonsensical ladder tunings.
func (r RecoveryConfig) Validate() error {
	switch {
	case r.MaxExceptionsPerRegion <= 0:
		return fmt.Errorf("dynopt: MaxExceptionsPerRegion %d, want > 0", r.MaxExceptionsPerRegion)
	case r.Window <= 0:
		return fmt.Errorf("dynopt: recovery Window %d, want > 0", r.Window)
	case r.DemoteThreshold <= 0 || r.DemoteThreshold > r.Window:
		return fmt.Errorf("dynopt: DemoteThreshold %d, want in [1, Window=%d]", r.DemoteThreshold, r.Window)
	case r.StormThreshold <= 0:
		return fmt.Errorf("dynopt: StormThreshold %d, want > 0", r.StormThreshold)
	case r.PromoteAfter <= 0:
		return fmt.Errorf("dynopt: PromoteAfter %d, want > 0", r.PromoteAfter)
	case r.BackoffFactor < 2:
		return fmt.Errorf("dynopt: BackoffFactor %d, want >= 2", r.BackoffFactor)
	case r.MaxBackoff < 1:
		return fmt.Errorf("dynopt: MaxBackoff %d, want >= 1", r.MaxBackoff)
	case r.CodeCacheCapacity <= 0:
		return fmt.Errorf("dynopt: CodeCacheCapacity %d, want > 0", r.CodeCacheCapacity)
	}
	return nil
}

// RecoveryStats aggregates the controller's run-wide activity.
type RecoveryStats struct {
	// Demotions and Promotions count ladder transitions across all
	// regions.
	Demotions  int64
	Promotions int64
	// Evictions counts compiled regions evicted by the code cache bound.
	Evictions int64
	// PinnedRegions and StickyRegions are the end-of-run counts of
	// regions at TierPinned and of regions that exhausted their backoff
	// (stable forever).
	PinnedRegions int
	StickyRegions int
	// TierDispatches counts region entries executed per tier;
	// TierPinned counts interpreted entries of pinned regions.
	TierDispatches [NumTiers]int64
	// TierRegions is the end-of-run residency: how many regions sit at
	// each tier.
	TierRegions [NumTiers]int
	// InvariantViolations counts rollbacks that failed the checkpoint
	// check (always fatal; nonzero only under injected corruption or a
	// genuine recovery bug).
	InvariantViolations int64
}

// regionRecord is everything the runtime keeps about one region, behind
// its entry block's dispatch slot. An entry gets one when it first needs
// per-region state (its first formation, or earlier for a transient
// compile failure or a quarantine) and keeps it for the run: drops,
// evictions and tier moves remove code, not the record.
type regionRecord struct {
	sb *region.Superblock // nil until formed, and after dropTrace
	// formed marks that the region got past region.Form once. The ladder
	// starts then: only formed records count in TierRegions.
	formed bool
	// blacklist and pins are the pairs and ALAT loads the region's alias
	// exceptions hardened (nil until the first). Under ALAT a store checks
	// *every* advanced load, so a false positive is silenced only by not
	// advancing the load at all.
	blacklist alias.Blacklist
	pins      map[int]bool
	// exceptions counts alias exceptions; past
	// Recovery.MaxExceptionsPerRegion the region goes conservative and
	// sticky (a guard against trap-recompile churn).
	exceptions    int
	injFailStreak uint64          // consecutive transient compile failures
	quarantined   bool            // barred from compiling (quarantineRegion)
	statsIdx      int             // index into Stats.Regions; -1 before the first install
	pending       *pendingCompile // live queued compile (single-flight), or nil

	tier Tier
	// window is a ring buffer over the last Window region entries:
	// true marks a misspeculation rollback.
	window     []bool
	wpos, wlen int
	rollbacks  int // rollbacks currently inside the window
	consec     int // consecutive rollbacks (storm detector)
	clean      int // consecutive clean commits since the last rollback
	backoff    int // promotion backoff multiplier (exponential)
	sticky     bool
	demotions  int
	promotions int
	// installs holds, per code tier, the input snapshot and admitted
	// output the region last installed at that tier (indexed by the
	// effective tier). An inline compile request whose inputs equal its
	// tier's record re-installs that output instead of running the
	// pipeline (see enqueueCompile). The records outlive evictions, code
	// drops and tier moves, which is when a region returns to a build it
	// made before; only dropTrace clears them.
	installs [TierPinned]installRecord
}

// installRecord is one tier's last installed build: the snapshot it was
// compiled from and the output that passed admitOutput.
type installRecord struct {
	in  *compileInput
	out *compileOutput
}

func newRegionRecord(cfg RecoveryConfig) *regionRecord {
	return &regionRecord{window: make([]bool, cfg.Window), backoff: 1, statsIdx: -1}
}

// dropTrace is the guard-fail drop: the superblock goes, and with it every
// install record, since each holds that superblock. What the region
// learned stays: blacklist, pins, exception count, ladder and quarantine.
func (rr *regionRecord) dropTrace() {
	rr.sb = nil
	rr.installs = [TierPinned]installRecord{}
}

// push records one region entry outcome in the sliding window.
func (rr *regionRecord) push(rollback bool) {
	if rr.wlen == len(rr.window) {
		if rr.window[rr.wpos] {
			rr.rollbacks--
		}
	} else {
		rr.wlen++
	}
	rr.window[rr.wpos] = rollback
	if rollback {
		rr.rollbacks++
	}
	rr.wpos = (rr.wpos + 1) % len(rr.window)
}

func (rr *regionRecord) resetWindow() {
	for i := range rr.window {
		rr.window[i] = false
	}
	rr.wpos, rr.wlen, rr.rollbacks, rr.consec, rr.clean = 0, 0, 0, 0, 0
}

// recordCommit notes a clean commit and reports whether the region earned
// a one-rung promotion.
func (rr *regionRecord) recordCommit(cfg RecoveryConfig) bool {
	rr.push(false)
	rr.consec = 0
	rr.clean++
	if rr.sticky || rr.tier == TierFull || rr.clean < cfg.PromoteAfter*rr.backoff {
		return false
	}
	rr.tier--
	rr.promotions++
	rr.resetWindow()
	return true
}

// recordHardeningRollback notes a rollback that produced new pair-level
// hardening (a fresh blacklist entry or newly pinned load): it interrupts
// a clean-commit run but is learning, not storming — blacklist
// convergence bursts at region warmup must not demote — so it stays out
// of the storm and window detectors.
func (rr *regionRecord) recordHardeningRollback() {
	rr.clean = 0
}

// recordRollback notes an unproductive misspeculation rollback (one that
// taught the optimizer nothing: a spurious exception, a repeated pair, or
// a speculation-induced fault) and reports whether the region was demoted
// one rung (storm or window rate).
func (rr *regionRecord) recordRollback(cfg RecoveryConfig) bool {
	rr.push(true)
	rr.consec++
	rr.clean = 0
	if rr.tier == TierPinned {
		return false
	}
	if rr.consec < cfg.StormThreshold && rr.rollbacks < cfg.DemoteThreshold {
		return false
	}
	rr.demote(cfg)
	return true
}

// demote moves one rung down and doubles the promotion backoff; past
// MaxBackoff the region becomes sticky.
func (rr *regionRecord) demote(cfg RecoveryConfig) {
	rr.tier++
	rr.demotions++
	rr.resetWindow()
	rr.backoff *= cfg.BackoffFactor
	if rr.backoff > cfg.MaxBackoff {
		rr.sticky = true
	}
}

// demoteTo jumps down to at least t (the chronic-offender cap) and
// reports whether the tier changed.
func (rr *regionRecord) demoteTo(cfg RecoveryConfig, t Tier) bool {
	changed := false
	for rr.tier < t {
		rr.demote(cfg)
		changed = true
	}
	return changed
}

// recordPinnedEntry notes one clean interpreted execution of a pinned
// region's entry block and reports whether the region earned re-promotion
// back to compiled (conservative) code.
func (rr *regionRecord) recordPinnedEntry(cfg RecoveryConfig) bool {
	rr.clean++
	if rr.sticky || rr.clean < cfg.PromoteAfter*rr.backoff {
		return false
	}
	rr.tier = TierConservative
	rr.promotions++
	rr.resetWindow()
	return true
}

// transitions returns the total number of ladder moves this region made —
// the livelock bound the chaos soak asserts on.
func (rr *regionRecord) transitions() int { return rr.demotions + rr.promotions }
