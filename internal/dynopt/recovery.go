package dynopt

import (
	"fmt"
	"maps"

	"smarq/internal/alias"
	"smarq/internal/faultinject"
	"smarq/internal/health"
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

// The region ladder's tuning and the other per-region limits.
const (
	// maxExceptionsPerRegion is the chronic-offender cap: a region whose
	// lifetime alias-exception count passes it jumps straight to
	// TierConservative and never re-promotes.
	maxExceptionsPerRegion = 24
	// maxGuardFails drops a region's trace after this many consecutive
	// off-trace exits.
	maxGuardFails = 8
	// defaultCodeCacheCapacity is the code cache bound when
	// Config.CodeCacheCapacity is 0.
	defaultCodeCacheCapacity = 256
)

// regionPolicy is every region's ladder hysteresis: tolerant enough that a
// handful of converging alias exceptions (the paper's blacklist path)
// never demotes, aggressive enough that storms reach the interpreter
// within a few windows. Over a 32-entry window, 8 misspeculation
// rollbacks (each weighs 1) or a storm of 5 in a row demote one rung; 64
// clean commits, times a backoff that doubles on every demotion, promote
// one rung; past a backoff of 16 the region is sticky.
var regionPolicy = health.Policy{
	Floor:           int(TierPinned),
	Window:          32,
	DemoteThreshold: 8,
	Storm:           5,
	MaxWeight:       1,
	PromoteAfter:    64,
	BackoffFactor:   2,
	MaxBackoff:      16,
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
	// exceptions hardened (nil until the first), and sets is their
	// encoding for compileKey. Under ALAT a store checks *every* advanced
	// load, so a false positive is silenced only by not advancing the load
	// at all. The maps are never written: harden replaces them with
	// copies, so compile inputs taken earlier keep what they saw.
	blacklist alias.Blacklist
	pins      map[int]bool
	sets      string
	// exceptions counts alias exceptions; past maxExceptionsPerRegion
	// the region goes conservative and sticky (a guard against
	// trap-recompile churn).
	exceptions    int
	injFailStreak uint64          // consecutive transient compile failures
	quarantined   bool            // barred from compiling (quarantineRegion)
	statsIdx      int             // index into Stats.Regions as staged (execScratch.regions); -1 before the first install
	pending       *pendingCompile // live queued compile (single-flight), or nil
	// draws counts the region's chaos draws per fault class, which keys
	// each next draw (faultinject.Ordinals). It is nil until the region's
	// first draw, so the record of a System without chaos keeps its size
	// class; once set it lasts as long as the record, across runs.
	draws *faultinject.Ordinals

	// Ladder is the region's speculation ladder (its Level is the
	// region's tier), run under regionPolicy. A misspeculation rollback
	// is a Fault of weight 1; a clean commit, and a pinned region's clean
	// interpreted entry, is a Clean.
	health.Ladder[Tier]
}

// harden records an alias exception's pair in the blacklist and, when pin
// >= 0, the pinned ALAT load (under ALAT a conflict writes both sets).
// When either is new, the record replaces the sets it writes with copies
// holding them and re-encodes sets; the old maps stay as they were, so no
// compile input, stored output or cache entry taken before the hardening
// sees it.
func (rr *regionRecord) harden(pair alias.Pair, pin int) {
	if rr.blacklist[pair] && (pin < 0 || rr.pins[pin]) {
		return
	}
	rr.blacklist = with(rr.blacklist, pair)
	if pin >= 0 {
		rr.pins = with(rr.pins, pin)
	}
	rr.sets = encodeSets(rr.pins, rr.blacklist)
}

// with returns a copy of set that also holds k.
func with[M ~map[K]bool, K comparable](set M, k K) M {
	c := make(M, len(set)+1)
	maps.Copy(c, set)
	c[k] = true
	return c
}

// chaosDraws returns the region's chaos draw ordinals, allocating them at
// its first draw.
func (rr *regionRecord) chaosDraws() *faultinject.Ordinals {
	if rr.draws == nil {
		rr.draws = new(faultinject.Ordinals)
	}
	return rr.draws
}

func newRegionRecord() *regionRecord {
	return &regionRecord{Ladder: health.NewLadder[Tier](regionPolicy), statsIdx: -1}
}

// dropTrace is the guard-fail drop: the superblock goes. What the region
// learned stays: blacklist, pins, exception count, ladder and quarantine.
// Its builds stay in the output store, so a region re-formed as the same
// trace re-installs its earlier build.
func (rr *regionRecord) dropTrace() {
	rr.sb = nil
}
