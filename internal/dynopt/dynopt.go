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
	"sync"

	"smarq/internal/alias"
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
	// CodeCacheCapacity bounds how many compiled regions stay installed;
	// inserting past it evicts the least recently dispatched region. It
	// bounds installed code only: an evicted region's build stays in the
	// process-wide output store, which its own byte budget bounds. 0 means
	// 256.
	CodeCacheCapacity int
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
	// Telemetry, when non-nil, enables the structured observability
	// layer: cycle-stamped events into Telemetry.Events and aggregate
	// counters/histograms into Telemetry.Metrics (either may be nil to
	// enable just one surface). Events are the runtime's one record of
	// its decisions, and this path never formats and never allocates on
	// the hot path; see internal/telemetry.
	Telemetry *telemetry.Telemetry
	// Compile configures the compile path and the fleet's shared cache
	// (compile.go). The zero value installs each compile at its request,
	// on the critical path.
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

// codeCacheCapacity resolves CodeCacheCapacity's 0 to the default.
func (c Config) codeCacheCapacity() int {
	if c.CodeCacheCapacity == 0 {
		return defaultCodeCacheCapacity
	}
	return c.CodeCacheCapacity
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
	if c.CodeCacheCapacity < 0 {
		return fmt.Errorf("dynopt: CodeCacheCapacity %d, want >= 0", c.CodeCacheCapacity)
	}
	if c.Compile.Workers < 0 {
		return fmt.Errorf("dynopt: Compile.Workers %d, want >= 0", c.Compile.Workers)
	}
	if c.Machine.CompileCyclesPerInst < 0 || c.Machine.CompileCyclesPerCheck < 0 {
		return fmt.Errorf("dynopt: Machine.CompileCyclesPerInst %d / CompileCyclesPerCheck %d, want >= 0",
			c.Machine.CompileCyclesPerInst, c.Machine.CompileCyclesPerCheck)
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
		Mode:         sched.HWOrdered,
		NumAliasRegs: 64,
		StoreReorder: true,
		HotThreshold: 50,
		Region:       region.DefaultConfig(),
		Machine:      vliw.DefaultConfig(),
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
	// region's most recent compilation (0 for a compile that installs at
	// its request).
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

	// Compile is the compile queue's and the fleet cache's accounting
	// (compile.go). CompileStats.WorkCycles is off the critical path and
	// deliberately excluded from TotalCycles.
	Compile CompileStats

	// Recovery is the tiered-deoptimization controller's accounting:
	// per-tier dispatches and residency, demotions/promotions, and code
	// cache evictions.
	Recovery RecoveryStats
	// Health is the system health controller's accounting: ladder moves,
	// observation counts and the final level (zero when Config.Health is
	// disabled).
	Health health.Stats
	// Injected reports how many chaos draws fired, per class (zero
	// without Config.Chaos). A host-fault draw fires at every compile
	// request but applies only to a fresh job, and only the dominant one
	// of several (drawHostFaults).
	Injected faultinject.Counts

	// Retirement.
	GuestInsts       int64
	InterpretedInsts int64

	// HWChecks counts the register comparisons the alias hardware
	// performed across the run — the §2.4 energy proxy.
	HWChecks uint64

	// Static per-region statistics (one entry per compiled region, in
	// first-install order, including recompiles' latest version). Run
	// stages them in its borrowed scratch and publishes them here as it
	// returns, at their exact length.
	Regions []RegionStats
}

type compiled struct {
	// out is the admitted compile output the code came from: out.cr runs,
	// and InspectRegion rebuilds the code from out.in.
	out        *compileOutput
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

// dispEntry is one block's slot in the dense dispatch table. It stays
// three words, since every block of every System pays for each slot
// byte; a region's state lives behind rec.
type dispEntry struct {
	code     *compiled
	rec      *regionRecord
	cooldown uint64 // block count required to recompile
}

// System is one guest program under the dynamic optimization system.
type System struct {
	cfg  Config
	prog *guest.Program
	st   *guest.State
	mem  *guest.Memory
	it   *interp.Interpreter
	inj  *faultinject.Injector

	// disp is the dense block-indexed dispatch table: installed code, the
	// region's record (see regionRecord) and the recompile cooldown live
	// in one slot per block, so steering between interpreter and compiled
	// code is a single bounds-checked load. installed counts slots with code.
	disp      []dispEntry
	installed int
	// fatalErr records a genuine guest fault hit while interpreting (see
	// interpretOne), or a rollback invariant violation; Run surfaces it.
	fatalErr error
	// entrySeq numbers region dispatches — the eviction clock source.
	entrySeq int64
	// resume is the guest block the next Run dispatches first: the
	// program entry until the first Run, then wherever the last Run
	// stopped (interp.HaltID once the guest has halted).
	resume int
	// cq queues the compiles that have a latency (Compile.Workers >= 1);
	// see compile.go. cache is the fleet's shared code cache
	// (Compile.SharedCache), which only counts lookups, or nil.
	cq    compileQueue
	cache *codecache.Cache[compileKey, struct{}]
	// hc is the system health controller (nil unless Config.Health is
	// enabled).
	hc *health.Controller
	// x is the executor scratch borrowed per Run from scratchPool (the
	// process-wide execPool): the execution context (vreg files, origin
	// ranges and undo log), so steady-state region entries allocate
	// nothing and the System owns none of it. It is nil between Runs.
	scratchPool *sync.Pool
	x           *execScratch
	// tel is the resolved telemetry view (nil when Config.Telemetry is
	// unset); every emit helper nil-checks it.
	tel *systemTelemetry
	// snap holds the entry state runRegion captures to verify a rollback
	// against; New allocates it only under CheckInvariants.
	snap *faultinject.Snapshot

	Stats Stats
}

// New creates a system over prog with the given initial state and memory.
// It panics when cfg fails Validate; use Config.Validate first for
// configurations assembled from user input.
func New(prog *guest.Program, st *guest.State, mem *guest.Memory, cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic("dynopt: invalid config: " + err.Error())
	}
	var inj *faultinject.Injector
	if cfg.Chaos.Enabled() {
		inj = faultinject.New(cfg.Chaos)
	}
	s := &System{
		cfg:         cfg,
		prog:        prog,
		st:          st,
		mem:         mem,
		it:          interp.New(prog, st, mem),
		inj:         inj,
		disp:        make([]dispEntry, len(prog.Blocks)),
		resume:      prog.Entry,
		tel:         newSystemTelemetry(&cfg),
		scratchPool: &execPool,
	}
	if cfg.Compile.SharedCache != nil {
		s.cache = cfg.Compile.SharedCache.cache
	}
	if cfg.Health.Enabled() {
		s.hc = health.New(cfg.Health)
	}
	if cfg.CheckInvariants {
		s.snap = new(faultinject.Snapshot)
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

// recordOf returns the region's record, creating it (unformed, at
// TierFull) on first use.
func (s *System) recordOf(entry int) *regionRecord {
	de := &s.disp[entry]
	if de.rec == nil {
		de.rec = newRegionRecord()
	}
	return de.rec
}

// tierOf returns the region's current ladder rung (TierFull before its
// first compilation).
func (s *System) tierOf(entry int) Tier {
	if rr := s.disp[entry].rec; rr != nil {
		return rr.Level
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
// lowest-entry tie break). Only the code leaves: the region keeps its
// record, and a recompile with unchanged inputs re-installs its build from
// the output store while the store still holds it.
func (s *System) evictForCapacity(entry int) {
	cap := s.cfg.codeCacheCapacity()
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
// retire. It reports whether the guest halted. maxInsts counts every
// guest instruction the System has retired, over all its Runs, and each
// Run resumes at the block where the previous one stopped, so a run cut
// into budget slices computes what one Run does. A Run after the guest
// halted retires nothing and returns (true, nil).
//
// The budget is a soft cap checked between dispatches: a run may overshoot
// maxInsts by at most one block (interpreted dispatch) or one region
// (compiled dispatch), because blocks and regions are the units of
// retirement — clamping mid-block would make budget-capped profiles and
// stats depend on where the cap fell inside a block.
// TestRunBudgetOvershootBounded pins this contract.
//
// With a metrics registry, every return publishes Stats into it, so a
// snapshot taken after Run is exact; mid-run, the registry lags Stats by at
// most publishPeriod loop iterations.
//
// Every return waits for this System's jobs still on the compile pool
// (those of compiles the run cancelled or left pending), so no job
// outlives the call.
func (s *System) Run(maxInsts uint64) (bool, error) {
	defer s.publish()
	s.borrowExec()
	defer s.returnExec()
	defer s.cq.jobs.Wait()
	id := s.resume
	defer func() { s.resume = id }()
	for id != interp.HaltID {
		if s.tel.due() {
			s.publish()
		}
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
		// Interpret one block; consider compiling its region. A guest
		// fault has already been counted into Stats by interpretOne.
		next := s.interpretOne(id)
		if s.fatalErr != nil {
			return false, s.fatalErr
		}

		// RunBlock succeeded, so id indexes a real block (and its slot).
		de := &s.disp[id]
		if rr := de.rec; rr != nil && rr.Level == TierPinned {
			// Interpreter-pinned region: count the clean entry; a long
			// enough clean run re-promotes it to conservative compiled
			// code (unless its backoff is exhausted).
			s.Stats.Recovery.TierDispatches[TierPinned]++
			if rr.Clean(regionPolicy) {
				s.Stats.Recovery.Promotions++
				de.cooldown = 0
				s.tel.tierMove(s.now(), id, TierPinned, rr.Level, telemetry.CauseNone)
			}
		}

		if s.hc != nil && s.hc.Level() >= health.CompileOff {
			// Interpreter-only: nothing dispatches, so quiet interpreted
			// progress is the only clean signal left to earn re-promotion
			// with (the per-region analogue is a pinned region's Clean).
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
func (s *System) executeRegion(entry int, rr *regionRecord, c *compiled) (vliw.ExecResult, telemetry.Cause) {
	if s.inj != nil {
		d := rr.chaosDraws()
		if ord, fired := s.inj.Draw(faultinject.SpuriousAlias, entry, d); fired {
			s.tel.chaosInjected(s.now(), entry, rr.Level, telemetry.CauseInjectedAlias, ord)
			return vliw.ExecResult{Outcome: vliw.AliasException}, telemetry.CauseInjectedAlias
		}
		if ord, fired := s.inj.Draw(faultinject.GuardFail, entry, d); fired {
			s.tel.chaosInjected(s.now(), entry, rr.Level, telemetry.CauseInjectedGuard, ord)
			return vliw.ExecResult{Outcome: vliw.GuardFail}, telemetry.CauseInjectedGuard
		}
	}
	res := s.x.ctx.Run(c.out.cr, s.st, s.mem)
	s.Stats.HWChecks += uint64(res.Checked)
	return res, telemetry.CauseNone
}

// runRegion executes an installed region and handles its outcome,
// returning the next block to dispatch.
func (s *System) runRegion(entry int, c *compiled) int {
	s.entrySeq++
	c.lastUse = s.entrySeq
	rr := s.recordOf(entry)
	s.Stats.Recovery.TierDispatches[rr.Level]++
	s.tel.dispatch(s.now(), entry, rr.Level)
	if c.fresh {
		c.fresh = false
		s.tel.firstDispatch(s.now() - c.installedAt)
	}

	if s.snap != nil {
		*s.snap = faultinject.Capture(s.st, s.mem)
	}

	res, injected := s.executeRegion(entry, rr, c)

	if res.Outcome != vliw.Commit {
		// Every non-commit outcome rolled back (or never ran). Chaos may
		// now model a broken restore; the invariant checker must catch
		// either that or a genuine recovery bug.
		if s.inj != nil {
			if ord, fired := s.inj.Corrupt(entry, rr.chaosDraws(), s.st); fired {
				s.tel.chaosInjected(s.now(), entry, rr.Level, telemetry.CauseCorrupt, ord)
			}
		}
		if s.snap != nil {
			if err := s.snap.Verify(s.st, s.mem); err != nil {
				s.Stats.Recovery.InvariantViolations++
				s.fatalErr = fmt.Errorf("dynopt: rollback invariant violated in B%d: %w", entry, err)
				return interp.HaltID
			}
		}
	}

	switch res.Outcome {
	case vliw.Commit:
		cost := c.out.cr.Cycles + int64(s.cfg.Machine.CommitCycles)
		s.Stats.RegionCycles += cost
		s.Stats.GuestInsts += int64(c.out.cr.GuestInsts)
		s.Stats.Commits++
		c.failStreak = 0
		s.healthClean()
		s.tel.commit(s.now(), entry, rr.Level, cost, res.ARHighWater, res.StoresBuffered)
		if rr.Clean(regionPolicy) {
			s.Stats.Recovery.Promotions++
			s.tel.tierMove(s.now(), entry, rr.Level+1, rr.Level, telemetry.CauseNone)
			// The promoted code replaces the conservative version, which
			// stays installed (it is still correct) until the replacement
			// is ready.
			s.recompileRegion(entry, false)
		}
		return res.NextBlock

	case vliw.AliasException:
		s.Stats.RegionCycles += c.out.cr.Cycles
		s.Stats.RollbackCycles += int64(s.cfg.Machine.RollbackPenalty)
		s.Stats.AliasExceptions++
		rr.exceptions++
		s.healthRollback()
		if s.tel != nil {
			cause, checker, origin := telemetry.CauseAlias, -1, -1
			if injected != telemetry.CauseNone {
				cause = injected
			}
			if res.Conflict != nil {
				checker, origin = res.Conflict.Checker, res.Conflict.Origin
			}
			cost := c.out.cr.Cycles + int64(s.cfg.Machine.RollbackPenalty)
			s.tel.aliasRollback(s.now(), entry, rr.Level, cause, cost, res.OpsExecuted, checker, origin)
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
			pair, pin := alias.MakePair(res.Conflict.Checker, res.Conflict.Origin), -1
			repeat := rr.blacklist[pair]
			if s.cfg.Mode == sched.HWALAT {
				pin = res.Conflict.Origin
				repeat = rr.pins[pin]
			}
			if repeat {
				s.demoteToConservative(entry, rr, telemetry.CausePairRepeat)
			} else {
				learned = true
			}
			rr.harden(pair, pin)
		}
		// Chronic offender: jump straight to conservative code and stop
		// promoting (the old one-shot pin, now the ladder's hard cap).
		if rr.exceptions > maxExceptionsPerRegion && rr.Level < TierConservative {
			s.demoteToConservative(entry, rr, telemetry.CauseChronic)
			rr.Sticky = true
		}
		if learned {
			// A fresh pair was hardened: productive learning, not a
			// storm, so it stays out of the window and the storm
			// detector — only the clean-commit run resets.
			rr.ResetRun()
		} else if rr.Fault(regionPolicy, 1) {
			s.Stats.Recovery.Demotions++
			s.tel.tierMove(s.now(), entry, rr.Level-1, rr.Level, telemetry.CauseRate)
		}
		if rr.Level == TierPinned {
			s.cancelPending(entry, telemetry.CauseStale)
			s.dropCode(entry)
		} else {
			// Re-optimize: a learned pair or tier move makes the trapped
			// code stale. An injected exception carries no pair, so the
			// inputs usually still equal the installed code's, and a
			// recompile that installs at its request re-installs that code.
			s.recompileRegion(entry, true)
		}
		// Make forward progress in the interpreter before re-dispatching.
		return s.interpretOne(entry)

	case vliw.GuardFail:
		s.Stats.RegionCycles += c.out.cr.Cycles
		s.Stats.RollbackCycles += int64(s.cfg.Machine.RollbackPenalty)
		s.Stats.GuardFails++
		c.failStreak++
		if s.tel != nil {
			cause := telemetry.CauseGuard
			if injected != telemetry.CauseNone {
				cause = injected
			}
			cost := c.out.cr.Cycles + int64(s.cfg.Machine.RollbackPenalty)
			s.tel.guardRollback(s.now(), entry, rr.Level, cause, cost, res.OpsExecuted, c.failStreak)
		}
		if c.failStreak >= maxGuardFails {
			// The trace no longer matches behaviour: drop it and require
			// twice the heat before re-forming.
			s.cancelPending(entry, telemetry.CauseStale)
			s.dropCode(entry)
			rr.dropTrace()
			s.disp[entry].cooldown = s.it.Prof.BlockCounts[entry] * 2
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), entry, rr.Level, telemetry.CauseGuard)
		}
		return s.interpretOne(entry)

	default: // Fault
		s.Stats.RegionCycles += c.out.cr.Cycles
		s.Stats.RollbackCycles += int64(s.cfg.Machine.RollbackPenalty)
		s.Stats.Faults++
		s.healthRollback()
		s.tel.rollback(s.now(), entry, rr.Level, telemetry.CauseFault,
			c.out.cr.Cycles+int64(s.cfg.Machine.RollbackPenalty), res.OpsExecuted)
		// Speculation-induced faults are misspeculation too: a region
		// whose hoisted loads keep faulting steps down the ladder until
		// the faults stop (TierConservative hoists nothing).
		if rr.Fault(regionPolicy, 1) {
			s.Stats.Recovery.Demotions++
			s.tel.tierMove(s.now(), entry, rr.Level-1, rr.Level, telemetry.CauseFaultStorm)
			if rr.Level == TierPinned {
				s.cancelPending(entry, telemetry.CauseStale)
				s.dropCode(entry)
			} else {
				// The faulting code is built for the old rung.
				s.recompileRegion(entry, true)
			}
		}
		return s.interpretOne(entry)
	}
}

// demoteToConservative jumps a region to TierConservative, one demotion
// per rung passed, after pair-level hardening failed (CausePairRepeat: a
// repeated blacklisted pair or re-pinned ALAT load, so speculation as a
// whole is wrong for this region; re-promotion stays possible, under
// backoff) or at the chronic-offender cap (CauseChronic).
func (s *System) demoteToConservative(entry int, rr *regionRecord, cause telemetry.Cause) {
	from := rr.Level
	s.Stats.Recovery.Demotions += int64(rr.DemoteTo(regionPolicy, TierConservative))
	s.tel.tierMove(s.now(), entry, from, rr.Level, cause) // no event if already there
}

// interpretOne interprets a single block — Run's interpreted dispatch, or
// the block after a rollback (the state is back at the region entry) — and
// returns the next block. It is the one place interpreted instructions are
// counted into Stats, faulting blocks included. An interpreter error means
// the guest itself faults architecturally at this point; it is recorded in
// fatalErr and surfaced by Run.
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
	s.syncLiveStats()
	// End-of-run ladder residency, and per-region recovery history.
	rec := &s.Stats.Recovery
	rec.PinnedRegions, rec.StickyRegions = 0, 0
	rec.TierRegions = [NumTiers]int{}
	for entry := range s.disp {
		rr := s.disp[entry].rec
		if rr == nil || !rr.formed {
			continue
		}
		rec.TierRegions[rr.Level]++
		if rr.Level == TierPinned {
			rec.PinnedRegions++
		}
		if rr.Sticky {
			rec.StickyRegions++
		}
		if rr.statsIdx >= 0 {
			rs := &s.x.regions[rr.statsIdx]
			rs.Tier = rr.Level
			rs.Demotions = rr.Demotions
			rs.Promotions = rr.Promotions
			rs.Sticky = rr.Sticky
		}
	}
}

// syncLiveStats copies into Stats the counts whose live source sits
// outside it: the injector's draws and the health controller's
// accounting.
func (s *System) syncLiveStats() {
	if s.inj != nil {
		s.Stats.Injected = s.inj.Counts()
	}
	if s.hc != nil {
		s.Stats.Health = s.hc.Stats()
	}
}

// State and Mem expose the architectural state for verification.
func (s *System) State() *guest.State { return s.st }

// Mem returns the guest memory.
func (s *System) Mem() *guest.Memory { return s.mem }
