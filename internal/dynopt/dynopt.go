// Package dynopt is the dynamic optimization system of Figure 1: guest
// code starts in the interpreter, hot blocks grow into superblock regions,
// regions are translated, speculatively optimized, scheduled with SMARQ
// alias register allocation, and installed in a code cache. Translated
// regions execute inside atomic regions on the VLIW model; alias
// exceptions roll back and trigger conservative re-optimization with the
// offending pair blacklisted, exactly as the paper's runtime module does.
//
// Recovery is tiered rather than all-or-nothing: each region sits on a
// speculation ladder (full → no store reordering → no eliminations →
// fully conservative → interpreter-pinned) driven by a per-region
// controller that watches the rollback rate over a sliding window of
// entries, demotes one rung at a time with exponential promotion backoff,
// and re-promotes after a sustained run of clean commits. See recovery.go
// and DESIGN.md ("Recovery ladder and chaos harness").
package dynopt

import (
	"fmt"

	"smarq/internal/alias"
	"smarq/internal/aliashw"
	"smarq/internal/codecache"
	"smarq/internal/core"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/health"
	"smarq/internal/interp"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/region"
	"smarq/internal/sched"
	"smarq/internal/telemetry"
	"smarq/internal/vliw"
)

// Config selects the alias hardware and tuning parameters for a run.
type Config struct {
	// Mode selects the alias-detection hardware.
	Mode sched.HWMode
	// NumAliasRegs sizes the ordered queue (ignored for ALAT/None).
	NumAliasRegs int
	// StoreReorder allows speculative store-store reordering (HWOrdered).
	StoreReorder bool
	// HotThreshold is the block execution count that triggers region
	// formation.
	HotThreshold uint64
	// MaxGuardFails drops a region from the cache after this many
	// consecutive off-trace exits.
	MaxGuardFails int
	// Recovery tunes the tiered deoptimization controller and the code
	// cache bound. The zero value means DefaultRecoveryConfig().
	Recovery RecoveryConfig
	// Chaos configures the deterministic fault injector (zero = off).
	Chaos faultinject.Config
	// CheckInvariants verifies after every rollback that the
	// architectural state and memory digest match the region-entry
	// checkpoint, surfacing a fatal error on divergence. The chaos and
	// differential tests keep it on; it digests all of guest memory per
	// region entry, so production-shaped runs leave it off.
	CheckInvariants bool
	// Region controls superblock formation.
	Region region.Config
	// Machine is the VLIW model.
	Machine vliw.Config
	// Ablation switches off individual SMARQ design elements for the
	// ablation studies (zero value = the full system).
	Ablation Ablation
	// Trace, when non-nil, receives one line per runtime event
	// (compilation, alias exception, tier change, eviction) — the
	// observability hook for debugging translated workloads.
	Trace func(format string, args ...interface{})
	// Telemetry, when non-nil, enables the structured observability
	// layer: cycle-stamped events into Telemetry.Events and aggregate
	// counters/histograms into Telemetry.Metrics (either may be nil to
	// enable just one surface). Unlike Trace this path never formats and
	// never allocates on the hot path; see internal/telemetry.
	Telemetry *telemetry.Telemetry
	// Compile configures asynchronous background compilation and
	// content-hash memoization (compile.go). The zero value is the legacy
	// synchronous instant-install path.
	Compile CompileConfig
	// Health configures the system-scope graceful-degradation controller
	// (internal/health): a sliding window over host faults and rollbacks
	// that walks normal → no-speculation → compile-off → quarantine with
	// hysteresis. The zero value disables it.
	Health health.Config
}

// Ablation selects design elements to disable.
type Ablation struct {
	// Anti drops anti-constraints: accidental checks between
	// never-reordered operations become runtime false positives.
	Anti bool
	// Rotation stops reusing alias registers through queue rotation.
	Rotation bool
	// Elim disables speculative load/store elimination.
	Elim bool
}

// withDefaults fills zero-valued sub-configurations.
func (c Config) withDefaults() Config {
	if c.Recovery == (RecoveryConfig{}) {
		c.Recovery = DefaultRecoveryConfig()
	}
	return c
}

// Validate rejects nonsensical configurations: an ordered queue or bit
// mask needs at least 2 alias registers, thresholds must be positive, and
// chaos rates must be probabilities. New panics on an invalid Config, so
// call Validate first when the values come from user input.
func (c Config) Validate() error {
	switch c.Mode {
	case sched.HWOrdered, sched.HWBitmask:
		if c.NumAliasRegs < 2 {
			return fmt.Errorf("dynopt: NumAliasRegs %d with %v hardware, want >= 2", c.NumAliasRegs, c.Mode)
		}
	}
	if c.HotThreshold == 0 {
		return fmt.Errorf("dynopt: HotThreshold 0, want > 0")
	}
	if c.MaxGuardFails <= 0 {
		return fmt.Errorf("dynopt: MaxGuardFails %d, want > 0", c.MaxGuardFails)
	}
	if c.Compile.Workers < 0 {
		return fmt.Errorf("dynopt: Compile.Workers %d, want >= 0", c.Compile.Workers)
	}
	if c.Compile.WatchdogFactor < 0 {
		return fmt.Errorf("dynopt: Compile.WatchdogFactor %d, want >= 0", c.Compile.WatchdogFactor)
	}
	if c.Compile.SharedPool != nil && c.Compile.Workers < 1 {
		return fmt.Errorf("dynopt: Compile.SharedPool set with Workers %d, want >= 1 (the background path)", c.Compile.Workers)
	}
	if c.Compile.SharedCache != nil && c.Compile.Workers < 1 {
		return fmt.Errorf("dynopt: Compile.SharedCache set with Workers %d, want >= 1 (the background path)", c.Compile.Workers)
	}
	if err := c.withDefaults().Recovery.Validate(); err != nil {
		return err
	}
	if err := c.Health.Validate(); err != nil {
		return err
	}
	return c.Chaos.Validate()
}

// mustValid backs the preset constructors: they only assemble constants,
// so a failure is a programming error.
func mustValid(c Config) Config {
	if err := c.Validate(); err != nil {
		panic("dynopt: invalid preset: " + err.Error())
	}
	return c
}

// DefaultConfig returns the paper's primary configuration: SMARQ with 64
// alias registers.
func DefaultConfig() Config {
	return mustValid(Config{
		Mode:          sched.HWOrdered,
		NumAliasRegs:  64,
		StoreReorder:  true,
		HotThreshold:  50,
		MaxGuardFails: 8,
		Recovery:      DefaultRecoveryConfig(),
		Region:        region.DefaultConfig(),
		Machine:       vliw.DefaultConfig(),
	})
}

// Named preset configurations for the paper's comparisons (Figure 15/16).

// ConfigSMARQ is SMARQ with n ordered alias registers (n=64 reproduces the
// paper's SMARQ bar, n=16 the Efficeon-like SMARQ16 bar). It panics for
// n < 2 (see Config.Validate).
func ConfigSMARQ(n int) Config {
	c := DefaultConfig()
	c.NumAliasRegs = n
	return mustValid(c)
}

// ConfigALAT is the Itanium-like model.
func ConfigALAT() Config {
	c := DefaultConfig()
	c.Mode = sched.HWALAT
	return mustValid(c)
}

// ConfigEfficeon is the true bit-mask model: precise named-register
// detection with explicit check masks, capped at 15 registers by the
// instruction encoding (§2.2). The paper approximates Efficeon with
// SMARQ-16; this configuration implements the real scheme so the encoding
// wall is visible directly.
func ConfigEfficeon() Config {
	c := DefaultConfig()
	c.Mode = sched.HWBitmask
	c.NumAliasRegs = 15
	return mustValid(c)
}

// ConfigNoHW disables alias hardware entirely.
func ConfigNoHW() Config {
	c := DefaultConfig()
	c.Mode = sched.HWNone
	return mustValid(c)
}

// ConfigNoStoreReorder is SMARQ-64 with store reordering disabled
// (Figure 16).
func ConfigNoStoreReorder() Config {
	c := DefaultConfig()
	c.StoreReorder = false
	return mustValid(c)
}

// RegionStats aggregates the static per-superblock statistics the paper's
// Figures 14, 17 and 19 report, plus the region's recovery-ladder state
// at the end of the run.
type RegionStats struct {
	Entry      int
	GuestInsts int
	MemOps     int
	Alloc      core.Stats
	Working    core.WorkingSets
	SeqLen     int
	Cycles     int64
	// CompileLatency is the simulated enqueue→install latency of the
	// region's most recent compilation (0 on the synchronous path).
	CompileLatency int64

	// Tier is the region's final rung on the speculation ladder;
	// Demotions/Promotions count its lifetime ladder moves and Sticky
	// reports whether its backoff is exhausted (stable forever).
	Tier       Tier
	Demotions  int
	Promotions int
	Sticky     bool
}

// Stats is the run-wide accounting.
type Stats struct {
	// Cycle breakdown.
	TotalCycles    int64
	InterpCycles   int64
	RegionCycles   int64
	RollbackCycles int64
	OptCycles      int64 // optimizer outside scheduling
	SchedCycles    int64 // scheduling + alias register allocation

	// Events.
	Commits         int64
	GuardFails      int64
	AliasExceptions int64
	Faults          int64
	RegionsCompiled int
	Recompiles      int
	RegionsDropped  int
	OverflowRetries int

	// Compile is the background-compilation and memoization accounting
	// (compile.go). CompileStats.WorkCycles is off the critical path and
	// deliberately excluded from TotalCycles.
	Compile CompileStats

	// Recovery is the tiered-deoptimization controller's accounting:
	// per-tier dispatches and residency, demotions/promotions, and code
	// cache evictions.
	Recovery RecoveryStats
	// Health is the system health controller's accounting: ladder moves,
	// observation counts, the final level, and the quarantined-region
	// count (zero when Config.Health is disabled).
	Health health.Stats
	// Injected reports which chaos faults actually fired (zero without
	// Config.Chaos).
	Injected faultinject.Counts

	// Retirement.
	GuestInsts       int64
	InterpretedInsts int64

	// HWChecks counts the register comparisons the alias hardware
	// performed across the run — the §2.4 energy proxy.
	HWChecks uint64

	// Static per-region statistics (one entry per compiled region,
	// including recompiles' latest version).
	Regions []RegionStats
}

type compiled struct {
	cr         *vliw.CompiledRegion
	failStreak int
	// lastUse is the dispatch sequence number of the region's most
	// recent execution — the code cache eviction clock.
	lastUse int64
	// installedAt is the simulated cycle the code landed in the cache;
	// fresh marks it not yet dispatched, so the first execution can
	// observe the install-to-dispatch lag exactly once.
	installedAt int64
	fresh       bool
}

// dispEntry is one block's slot in the dense dispatch table. Entries are
// region entry blocks; blocks that never become regions keep a zero slot.
type dispEntry struct {
	code     *compiled
	rec      *regionRecovery
	cooldown uint64 // block count required to recompile
}

// System is one guest program under the dynamic optimization system.
type System struct {
	cfg  Config
	prog *guest.Program
	st   *guest.State
	mem  *guest.Memory
	it   *interp.Interpreter
	det  aliashw.Detector
	inj  *faultinject.Injector

	// disp is the dense block-indexed dispatch table: installed code, the
	// region's ladder controller (created at first compilation, kept
	// across drops and evictions so a region's history survives its code)
	// and the recompile cooldown live in one slot per block, so steering
	// between interpreter and compiled code is a single bounds-checked
	// load instead of three map probes. installed counts slots with code.
	disp      []dispEntry
	installed int
	sbCache   map[int]*region.Superblock
	blacklist map[int]alias.Blacklist
	regionIdx map[int]int // entry -> index into Stats.Regions
	// pinnedLoads collects, per region entry, ops that must no longer be
	// speculated on. Under ALAT a store checks *every* advanced load, so
	// a false positive can only be silenced by not advancing the load at
	// all; hardening the pair is not enough.
	pinnedLoads map[int]map[int]bool
	// fatalErr records a genuine guest fault hit while interpreting after
	// a rollback, or a rollback invariant violation; Run surfaces it.
	fatalErr error
	// exceptions counts alias exceptions per region entry; past
	// Recovery.MaxExceptionsPerRegion the region jumps to
	// TierConservative and stops promoting (a guard against pathological
	// trap-recompile churn, e.g. when the anti-constraint ablation floods
	// a region with false positives).
	exceptions map[int]int
	// entrySeq numbers region dispatches — the eviction clock source.
	entrySeq int64
	// bg is the background-compilation state (nil in synchronous mode);
	// see compile.go. cache is the compile-output cache: the fleet's
	// (Compile.SharedCache, fleetCache set), else a private one-shard memo
	// (Compile.Memoize), else nil.
	bg         *bgCompile
	cache      *codecache.Cache[*compileOutput]
	fleetCache bool
	// injFailStreak counts consecutive chaos-injected compile failures
	// per entry; injected failures back off additively instead of the
	// real-failure doubling (see compileFailBackoff).
	injFailStreak map[int]uint64
	// hc is the system health controller (nil unless Config.Health is
	// enabled) and quarantined the set of regions permanently barred from
	// compiling (worker panics, or admission at the quarantine level).
	hc          *health.Controller
	quarantined map[int]bool
	// ectx is the reusable execution context: vreg files, checkpoint and
	// undo log are pooled here so steady-state region entries allocate
	// nothing.
	ectx vliw.ExecContext
	// tel is the resolved telemetry view (nil when Config.Telemetry is
	// unset); every emit helper nil-checks it.
	tel *systemTelemetry

	Stats Stats
}

// New creates a system over prog with the given initial state and memory.
// It panics when cfg fails Validate; use Config.Validate first for
// configurations assembled from user input.
func New(prog *guest.Program, st *guest.State, mem *guest.Memory, cfg Config) *System {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic("dynopt: invalid config: " + err.Error())
	}
	var det aliashw.Detector
	switch cfg.Mode {
	case sched.HWOrdered:
		det = aliashw.NewOrderedQueue(cfg.NumAliasRegs)
	case sched.HWALAT:
		det = aliashw.NewALAT()
	case sched.HWBitmask:
		det = aliashw.NewBitmask(cfg.NumAliasRegs)
	default:
		det = aliashw.None{}
	}
	var inj *faultinject.Injector
	if cfg.Chaos.Enabled() {
		inj = faultinject.New(cfg.Chaos)
	}
	s := &System{
		cfg:           cfg,
		prog:          prog,
		st:            st,
		mem:           mem,
		it:            interp.New(prog, st, mem),
		det:           det,
		inj:           inj,
		disp:          make([]dispEntry, len(prog.Blocks)),
		sbCache:       make(map[int]*region.Superblock),
		blacklist:     make(map[int]alias.Blacklist),
		regionIdx:     make(map[int]int),
		pinnedLoads:   make(map[int]map[int]bool),
		exceptions:    make(map[int]int),
		injFailStreak: make(map[int]uint64),
		quarantined:   make(map[int]bool),
		tel:           newSystemTelemetry(&cfg),
	}
	if cfg.Compile.Workers > 0 {
		s.bg = &bgCompile{
			pending:    make(map[int]*pendingCompile),
			pool:       cfg.Compile.SharedPool,
			sharedPool: cfg.Compile.SharedPool != nil,
		}
	}
	switch {
	case cfg.Compile.SharedCache != nil:
		s.cache, s.fleetCache = cfg.Compile.SharedCache.cache, true
	case cfg.Compile.Memoize:
		// One shard: only the simulation thread touches a private memo, and
		// a single shard under single-threaded use is exact LRU.
		s.cache = codecache.New[*compileOutput](codecache.Options{
			Shards: 1, MaxEntries: int64(cfg.Compile.memoCapacity()),
		}, nil)
	}
	if cfg.Health.Enabled() {
		s.hc = health.New(cfg.Health)
	}
	if s.tel != nil {
		s.it.Insts = cfg.Telemetry.Registry().Counter(mInterpInsts)
	}
	return s
}

// setCode installs code in a block's dispatch slot, keeping the installed
// count (the code cache occupancy) in step.
func (s *System) setCode(entry int, c *compiled) {
	de := &s.disp[entry]
	if de.code == nil {
		s.installed++
	}
	de.code = c
}

// dropCode removes a block's installed code, if any.
func (s *System) dropCode(entry int) {
	de := &s.disp[entry]
	if de.code != nil {
		s.installed--
		de.code = nil
	}
}

// recoveryOf returns the region's ladder controller, creating it at
// TierFull on first use.
func (s *System) recoveryOf(entry int) *regionRecovery {
	de := &s.disp[entry]
	if de.rec == nil {
		de.rec = newRegionRecovery(s.cfg.Recovery)
	}
	return de.rec
}

// tierOf returns the region's current ladder rung (TierFull before its
// first compilation).
func (s *System) tierOf(entry int) Tier {
	if rr := s.disp[entry].rec; rr != nil {
		return rr.tier
	}
	return TierFull
}

// optConfig derives the optimization pass configuration from the hardware
// mode and the region's ladder rung (the health-clamped effective rung at
// compile time): SMARQ speculates through eliminations; ALAT supports
// neither (§7: the ALAT "cannot be used for ... store load forwarding");
// without hardware only provably safe eliminations run; at TierNoElim and
// below speculative eliminations stay off regardless (their checks would
// still allocate alias registers even in program order).
func (s *System) optConfig(tier Tier) opt.Config {
	if s.cfg.Ablation.Elim {
		return opt.Config{}
	}
	if tier >= TierNoElim {
		return opt.Config{LoadElim: true, StoreElim: true, Speculative: false}
	}
	switch s.cfg.Mode {
	case sched.HWOrdered, sched.HWBitmask:
		// Both precise schemes can check eliminations (§2.2: Efficeon
		// "can also support scheduling of stores" and precise pairs).
		return opt.Config{LoadElim: true, StoreElim: true, Speculative: true}
	default:
		// ALAT cannot check eliminations (no ordered registers), and
		// without hardware nothing can: both run only the provably safe
		// eliminations.
		return opt.Config{LoadElim: true, StoreElim: true, Speculative: false}
	}
}

// evictForCapacity makes room for a new region when the code cache is at
// capacity by evicting the least recently dispatched region (deterministic
// lowest-entry tie break). The evicted region keeps its superblock,
// blacklist and ladder state, so re-compilation resumes where it left off.
func (s *System) evictForCapacity(entry int) {
	cap := s.cfg.Recovery.CodeCacheCapacity
	for s.installed >= cap {
		victim, oldest := -1, int64(0)
		for e := range s.disp {
			c := s.disp[e].code
			if c == nil || e == entry {
				continue
			}
			if victim == -1 || c.lastUse < oldest || (c.lastUse == oldest && e < victim) {
				victim, oldest = e, c.lastUse
			}
		}
		if victim == -1 {
			return
		}
		// An in-flight recompile for the victim would just re-install it:
		// it is stale the moment the code leaves the cache.
		s.cancelPending(victim, telemetry.CauseStale)
		s.dropCode(victim)
		s.Stats.Recovery.Evictions++
		s.tel.evict(s.now(), victim, s.tierOf(victim))
		s.trace("evict B%d from the code cache (capacity %d)", victim, cap)
	}
}

// trace emits a runtime event line when tracing is enabled.
func (s *System) trace(format string, args ...interface{}) {
	if s.cfg.Trace != nil {
		s.cfg.Trace(format, args...)
	}
}

// resetAnnotations clears alias register annotations left by a failed
// scheduling attempt.
func resetAnnotations(reg *ir.Region) {
	for _, o := range reg.Ops {
		o.AROffset = -1
		o.ARMask = 0
		o.P, o.C = false, false
	}
}

// Run executes the guest until it halts or maxInsts guest instructions
// retire. It reports whether the guest halted.
//
// The budget is a soft cap checked between dispatches: a run may overshoot
// maxInsts by at most one block (interpreted dispatch) or one region
// (compiled dispatch), because blocks and regions are the units of
// retirement — clamping mid-block would make budget-capped profiles and
// stats depend on where the cap fell inside a block.
// TestRunBudgetOvershootBounded pins this contract.
func (s *System) Run(maxInsts uint64) (bool, error) {
	id := s.prog.Entry
	for id != interp.HaltID {
		if s.fatalErr != nil {
			return false, s.fatalErr
		}
		if uint64(s.Stats.GuestInsts) >= maxInsts {
			s.finalize()
			return false, nil
		}
		s.drainCompiles()
		if uint(id) < uint(len(s.disp)) {
			if c := s.disp[id].code; c != nil && s.healthDispatchOK() {
				id = s.runRegion(id, c)
				continue
			}
		}
		// Interpret one block; consider compiling its region.
		before := s.it.DynInsts
		next, err := s.it.RunBlock(id)
		if err != nil {
			return false, err
		}
		insts := int64(s.it.DynInsts - before)
		s.Stats.InterpCycles += insts * int64(s.cfg.Machine.InterpCyclesPerInst)
		s.Stats.GuestInsts += insts
		s.Stats.InterpretedInsts += insts

		// RunBlock succeeded, so id indexes a real block (and its slot).
		de := &s.disp[id]
		if rr := de.rec; rr != nil && rr.tier == TierPinned {
			// Interpreter-pinned region: count the clean entry; a long
			// enough clean run re-promotes it to conservative compiled
			// code (unless its backoff is exhausted).
			s.Stats.Recovery.TierDispatches[TierPinned]++
			if rr.recordPinnedEntry(s.cfg.Recovery) {
				s.Stats.Recovery.Promotions++
				de.cooldown = 0
				s.tel.tierMove(s.now(), id, TierPinned, rr.tier, telemetry.CauseNone)
				s.trace("promote B%d: %s -> %s after clean interpreted run", id, TierPinned, rr.tier)
			}
		}

		if s.hc != nil && s.hc.Level() >= health.CompileOff {
			// Interpreter-only: nothing dispatches, so quiet interpreted
			// progress is the only clean signal left to earn re-promotion
			// with (the per-region analogue is recordPinnedEntry).
			s.healthClean()
		}

		if s.it.Prof.Hot(id, s.cfg.HotThreshold) && de.code == nil &&
			s.tierOf(id) != TierPinned &&
			s.it.Prof.BlockCounts[id] >= de.cooldown {
			if err := s.requestCompile(id); err != nil {
				// Unschedulable regions stay interpreted; injected chaos
				// failures retry sooner (see compileFailBackoff).
				s.compileFailBackoff(id, err)
			}
		}
		id = next
	}
	s.finalize()
	if s.fatalErr != nil {
		return false, s.fatalErr
	}
	return true, nil
}

// executeRegion runs the compiled region, or synthesizes a rollback
// outcome when the fault injector fires first. Injected outcomes skip
// execution entirely, so the architectural state is untouched — exactly
// what a region that trapped at its first instruction looks like. An
// injected alias exception carries no Conflict (there is no real pair to
// blacklist), mirroring an inexplicable hardware false positive.
// The second return distinguishes injected outcomes (CauseInjectedAlias /
// CauseInjectedGuard) from real execution (CauseNone) for telemetry.
func (s *System) executeRegion(entry int, tier Tier, c *compiled) (vliw.ExecResult, telemetry.Cause) {
	if s.inj != nil {
		if s.inj.SpuriousAlias() {
			s.tel.chaosInjected(s.now(), entry, tier, telemetry.CauseInjectedAlias)
			return vliw.ExecResult{Outcome: vliw.AliasException}, telemetry.CauseInjectedAlias
		}
		if s.inj.GuardFail() {
			s.tel.chaosInjected(s.now(), entry, tier, telemetry.CauseInjectedGuard)
			return vliw.ExecResult{Outcome: vliw.GuardFail}, telemetry.CauseInjectedGuard
		}
	}
	return s.ectx.Execute(c.cr, s.st, s.mem, s.det), telemetry.CauseNone
}

// runRegion executes an installed region and handles its outcome,
// returning the next block to dispatch.
func (s *System) runRegion(entry int, c *compiled) int {
	s.entrySeq++
	c.lastUse = s.entrySeq
	rr := s.recoveryOf(entry)
	s.Stats.Recovery.TierDispatches[rr.tier]++
	s.tel.dispatch(s.now(), entry, rr.tier)
	if c.fresh {
		c.fresh = false
		s.tel.firstDispatch(s.now() - c.installedAt)
	}

	var snap faultinject.Snapshot
	if s.cfg.CheckInvariants {
		snap = faultinject.Capture(s.st, s.mem)
	}

	res, injected := s.executeRegion(entry, rr.tier, c)

	if res.Outcome != vliw.Commit {
		// Every non-commit outcome rolled back (or never ran). Chaos may
		// now model a broken restore; the invariant checker must catch
		// either that or a genuine recovery bug.
		if s.inj != nil && s.inj.CorruptState(s.st) {
			s.tel.chaosInjected(s.now(), entry, rr.tier, telemetry.CauseCorrupt)
			s.trace("injected post-rollback state corruption in B%d", entry)
		}
		if s.cfg.CheckInvariants {
			if err := snap.Verify(s.st, s.mem); err != nil {
				s.Stats.Recovery.InvariantViolations++
				s.fatalErr = fmt.Errorf("dynopt: rollback invariant violated in B%d: %w", entry, err)
				return interp.HaltID
			}
		}
	}

	switch res.Outcome {
	case vliw.Commit:
		cost := c.cr.Cycles + int64(s.cfg.Machine.CommitCycles)
		s.Stats.RegionCycles += cost
		s.Stats.GuestInsts += int64(c.cr.GuestInsts)
		s.Stats.Commits++
		c.failStreak = 0
		s.healthClean()
		s.tel.commit(s.now(), entry, rr.tier, cost, res.ARHighWater, res.StoresBuffered)
		if rr.recordCommit(s.cfg.Recovery) {
			s.Stats.Recovery.Promotions++
			s.tel.tierMove(s.now(), entry, rr.tier+1, rr.tier, telemetry.CauseNone)
			s.trace("promote B%d to %s after %d clean commits", entry, rr.tier, s.cfg.Recovery.PromoteAfter)
			// The promoted code replaces the conservative version, which
			// stays installed (it is still correct) until the background
			// replacement is ready.
			if err := s.recompileRegion(entry); err != nil {
				s.dropCode(entry)
				s.Stats.RegionsDropped++
				s.tel.drop(s.now(), entry, rr.tier, telemetry.CauseCompileFail)
			}
		}
		return res.NextBlock

	case vliw.AliasException:
		s.Stats.RegionCycles += c.cr.Cycles
		s.Stats.RollbackCycles += int64(s.cfg.Machine.RollbackPenalty)
		s.Stats.AliasExceptions++
		s.exceptions[entry]++
		s.healthRollback()
		if s.tel != nil {
			cause, checker, origin := telemetry.CauseAlias, -1, -1
			if injected != telemetry.CauseNone {
				cause = injected
			}
			if res.Conflict != nil {
				checker, origin = res.Conflict.Checker, res.Conflict.Origin
			}
			cost := c.cr.Cycles + int64(s.cfg.Machine.RollbackPenalty)
			s.tel.aliasRollback(s.now(), entry, rr.tier, cause, cost, res.OpsExecuted, checker, origin)
		}
		// Conservative re-optimization (Figure 1). Under the ordered
		// queue the check identifies exactly the speculated pair, so the
		// pair is assumed to always alias from now on. Under ALAT the
		// store that trapped checked *every* advanced load — hardening
		// the pair cannot silence a false positive — so the load itself
		// stops being advanced. If the same pair (or pinned load) traps
		// again, pair-level hardening has provably failed and the region
		// jumps to conservative code — unlike the noisy rate/storm
		// signals below, which demote one rung at a time.
		learned := false
		if res.Conflict != nil {
			bl := s.blacklist[entry]
			if bl == nil {
				bl = make(alias.Blacklist)
				s.blacklist[entry] = bl
			}
			pair := alias.MakePair(res.Conflict.Checker, res.Conflict.Origin)
			s.trace("alias exception in B%d: op %d checked op %d", entry, res.Conflict.Checker, res.Conflict.Origin)
			if s.cfg.Mode == sched.HWALAT {
				pins := s.pinnedLoads[entry]
				if pins == nil {
					pins = make(map[int]bool)
					s.pinnedLoads[entry] = pins
				}
				if pins[res.Conflict.Origin] {
					s.demoteToConservative(entry, rr)
				} else {
					learned = true
				}
				pins[res.Conflict.Origin] = true
			} else if bl[pair] {
				s.demoteToConservative(entry, rr)
			} else {
				learned = true
			}
			bl[pair] = true
		} else {
			s.trace("spurious alias exception in B%d (injected)", entry)
		}
		// Chronic offender: jump straight to conservative code and stop
		// promoting (the old one-shot pin, now the ladder's hard cap).
		if s.exceptions[entry] > s.cfg.Recovery.MaxExceptionsPerRegion &&
			rr.tier < TierConservative {
			before, from := rr.demotions, rr.tier
			if rr.demoteTo(s.cfg.Recovery, TierConservative) {
				s.Stats.Recovery.Demotions += int64(rr.demotions - before)
				s.tel.tierMove(s.now(), entry, from, rr.tier, telemetry.CauseChronic)
				s.trace("pin B%d conservative after %d alias exceptions", entry, s.exceptions[entry])
			}
			rr.sticky = true
		}
		if learned {
			// A fresh pair was hardened: productive learning, not a
			// storm — only the clean-commit run resets.
			rr.recordHardeningRollback()
		} else if rr.recordRollback(s.cfg.Recovery) {
			s.Stats.Recovery.Demotions++
			s.tel.tierMove(s.now(), entry, rr.tier-1, rr.tier, telemetry.CauseRate)
			s.trace("demote B%d to %s (rollback rate)", entry, rr.tier)
		}
		if rr.tier == TierPinned {
			s.cancelPending(entry, telemetry.CauseStale)
			s.dropCode(entry)
			s.trace("pin B%d to the interpreter", entry)
		} else {
			if s.bg != nil {
				// The trapped code is stale (its pair is now hardened):
				// drop it and interpret until the replacement installs.
				s.dropCode(entry)
			}
			if err := s.recompileRegion(entry); err != nil {
				s.dropCode(entry)
				s.Stats.RegionsDropped++
				s.tel.drop(s.now(), entry, rr.tier, telemetry.CauseCompileFail)
			}
		}
		// Make forward progress in the interpreter before re-dispatching.
		return s.interpretOne(entry)

	case vliw.GuardFail:
		s.Stats.RegionCycles += c.cr.Cycles
		s.Stats.RollbackCycles += int64(s.cfg.Machine.RollbackPenalty)
		s.Stats.GuardFails++
		c.failStreak++
		if s.tel != nil {
			cause := telemetry.CauseGuard
			if injected != telemetry.CauseNone {
				cause = injected
			}
			cost := c.cr.Cycles + int64(s.cfg.Machine.RollbackPenalty)
			s.tel.guardRollback(s.now(), entry, rr.tier, cause, cost, res.OpsExecuted, c.failStreak)
		}
		if c.failStreak >= s.cfg.MaxGuardFails {
			// The trace no longer matches behaviour: drop it and require
			// twice the heat before re-forming.
			s.trace("drop B%d after %d consecutive guard failures", entry, c.failStreak)
			s.cancelPending(entry, telemetry.CauseStale)
			s.dropCode(entry)
			delete(s.sbCache, entry)
			s.disp[entry].cooldown = s.it.Prof.BlockCounts[entry] * 2
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), entry, rr.tier, telemetry.CauseGuard)
		}
		return s.interpretOne(entry)

	default: // Fault
		s.Stats.RegionCycles += c.cr.Cycles
		s.Stats.RollbackCycles += int64(s.cfg.Machine.RollbackPenalty)
		s.Stats.Faults++
		s.healthRollback()
		s.tel.faultRollback(s.now(), entry, rr.tier,
			c.cr.Cycles+int64(s.cfg.Machine.RollbackPenalty), res.OpsExecuted)
		// Speculation-induced faults are misspeculation too: a region
		// whose hoisted loads keep faulting steps down the ladder until
		// the faults stop (TierConservative hoists nothing).
		if rr.recordRollback(s.cfg.Recovery) {
			s.Stats.Recovery.Demotions++
			s.tel.tierMove(s.now(), entry, rr.tier-1, rr.tier, telemetry.CauseFaultStorm)
			s.trace("demote B%d to %s (fault storm)", entry, rr.tier)
			if rr.tier == TierPinned {
				s.cancelPending(entry, telemetry.CauseStale)
				s.dropCode(entry)
				s.trace("pin B%d to the interpreter", entry)
			} else {
				if s.bg != nil {
					// The faulting code is built for the old rung: drop it
					// and interpret until the demoted replacement installs.
					s.dropCode(entry)
				}
				if err := s.recompileRegion(entry); err != nil {
					s.dropCode(entry)
					s.Stats.RegionsDropped++
					s.tel.drop(s.now(), entry, rr.tier, telemetry.CauseCompileFail)
				}
			}
		}
		return s.interpretOne(entry)
	}
}

// demoteToConservative jumps a region to TierConservative after
// pair-level hardening failed (a repeated blacklisted pair or re-pinned
// ALAT load): the precise fix did not hold, so speculation as a whole is
// wrong for this region. Re-promotion stays possible, under backoff.
func (s *System) demoteToConservative(entry int, rr *regionRecovery) {
	before, from := rr.demotions, rr.tier
	if rr.demoteTo(s.cfg.Recovery, TierConservative) {
		s.Stats.Recovery.Demotions += int64(rr.demotions - before)
		s.tel.tierMove(s.now(), entry, from, rr.tier, telemetry.CausePairRepeat)
		s.trace("demote B%d to %s (pair hardening failed)", entry, rr.tier)
	}
}

// interpretOne interprets a single block after a rollback (the state is
// back at the region entry) and returns the next block. An interpreter
// error here means the guest itself faults architecturally at this point;
// it is recorded and surfaced by Run.
func (s *System) interpretOne(id int) int {
	before := s.it.DynInsts
	next, err := s.it.RunBlock(id)
	insts := int64(s.it.DynInsts - before)
	s.Stats.InterpCycles += insts * int64(s.cfg.Machine.InterpCyclesPerInst)
	s.Stats.GuestInsts += insts
	s.Stats.InterpretedInsts += insts
	if err != nil {
		s.fatalErr = err
		return interp.HaltID
	}
	return next
}

func (s *System) finalize() {
	s.abandonCompiles()
	s.Stats.TotalCycles = s.Stats.InterpCycles + s.Stats.RegionCycles +
		s.Stats.RollbackCycles + s.Stats.OptCycles + s.Stats.SchedCycles
	s.Stats.HWChecks = s.det.Checked()
	if s.inj != nil {
		s.Stats.Injected = s.inj.Counts()
	}
	if s.hc != nil {
		s.Stats.Health = s.hc.Stats()
		s.Stats.Health.QuarantinedRegions = int64(len(s.quarantined))
	}
	if s.cache != nil && !s.fleetCache {
		s.Stats.Compile.MemoEvictions = s.cache.Evictions()
	}
	// End-of-run ladder residency, and per-region recovery history.
	rec := &s.Stats.Recovery
	rec.PinnedRegions, rec.StickyRegions = 0, 0
	rec.TierRegions = [NumTiers]int{}
	for entry := range s.disp {
		rr := s.disp[entry].rec
		if rr == nil {
			continue
		}
		rec.TierRegions[rr.tier]++
		if rr.tier == TierPinned {
			rec.PinnedRegions++
		}
		if rr.sticky {
			rec.StickyRegions++
		}
		if idx, ok := s.regionIdx[entry]; ok {
			rs := &s.Stats.Regions[idx]
			rs.Tier = rr.tier
			rs.Demotions = rr.demotions
			rs.Promotions = rr.promotions
			rs.Sticky = rr.sticky
		}
	}
}

// State and Mem expose the architectural state for verification.
func (s *System) State() *guest.State { return s.st }

// Mem returns the guest memory.
func (s *System) Mem() *guest.Memory { return s.mem }
