// Asynchronous background compilation: the compile pipeline (xlate → opt
// → constraint/deps → sched → alias allocation → vliw.Compile) extracted
// into a pure function over snapshotted inputs, so it can run either
// synchronously (the legacy instant-install path, Compile.Workers == 0)
// or on a bounded host worker pool behind a deterministic simulated
// compile-latency model.
//
// Determinism rule: a region's install point is a pure function of the
// simulated clock — readyAt = enqueue-cycle + CompileCyclesPerInst ×
// guest insts + CompileCyclesPerCheck × guest mem ops, both derived from
// the superblock alone, never from the compile result or the wall clock.
// Every simulated decision (chaos draws, memo lookups, enqueue, install,
// cancellation) happens on the simulation thread; workers only evaluate
// the pure pipeline. Any Workers >= 1 therefore produces byte-identical
// stats, telemetry and guest state; the worker count is host parallelism
// only.
package dynopt

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"smarq/internal/alias"
	"smarq/internal/codecache"
	"smarq/internal/compilequeue"
	"smarq/internal/core"
	"smarq/internal/deps"
	"smarq/internal/faultinject"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/region"
	"smarq/internal/sched"
	"smarq/internal/telemetry"
	"smarq/internal/vliw"
	"smarq/internal/xlate"
)

// CompileConfig configures the background-compilation subsystem.
type CompileConfig struct {
	// Workers selects the compile path. 0 (the default) is the legacy
	// synchronous path: compilations install instantly and charge
	// Opt/SchedCycles on the critical path. Workers >= 1 enables the
	// background model: compilations run on that many host workers while
	// the interpreter keeps executing, and install only once the
	// simulated clock passes the region's readyAt point. Every N >= 1
	// yields byte-identical simulated results.
	Workers int
	// Memoize enables content-hash memoization of compiled regions in a
	// private cache: recompiling a region whose guest instructions and
	// configuration bits hash to a previously compiled key reuses that
	// code without re-running the pipeline. Simulated costs are replayed
	// on a hit, so stats are identical with memoization on or off (apart
	// from the hit/miss counters themselves). Works in both compile paths.
	Memoize bool
	// MemoCapacity bounds the private memo in entries; past the bound the
	// least recently used entry is evicted. 0 selects
	// DefaultMemoCapacity; negative means unbounded.
	MemoCapacity int
	// WatchdogFactor fixes each background compile's watchdog deadline at
	// enqueue-cycle + modelled-cost × factor, in simulated cycles. A
	// compile still pending at its deadline is killed at that point — its
	// result is never read — and the region retries later under the
	// transient-failure backoff. 0 selects DefaultWatchdogFactor.
	WatchdogFactor int
	// SharedPool, when non-nil, runs this System's background compiles on
	// a host-wide worker pool shared across concurrently running Systems
	// (fleet execution) instead of a private per-System pool. Workers must
	// still be >= 1 to select the background path; the shared pool's own
	// size governs host parallelism. The System never closes a shared
	// pool — its creator does, after every System using it has finished.
	SharedPool *compilequeue.Pool
	// SharedCache, when non-nil, is the System's compile-output cache in
	// place of a private memo (Memoize and MemoCapacity are then moot): a
	// concurrent sharded content-addressed cache shared across Systems,
	// so identical regions compile once fleet-wide, and a region being
	// compiled by one tenant is awaited (cross-tenant single-flight), not
	// recompiled, by others. Hits replay the modelled compile costs
	// exactly like memo hits, so each tenant's simulated results are
	// byte-identical to a solo run modulo the hit/miss/dedupe counters.
	// Requires Workers >= 1 (the background path).
	SharedCache *CodeCache
}

// DefaultMemoCapacity is the memo-table bound when MemoCapacity is 0.
const DefaultMemoCapacity = 4096

// DefaultWatchdogFactor is the deadline multiple when WatchdogFactor is 0.
const DefaultWatchdogFactor = 4

// memoCapacity resolves the configured memo bound (0 = unbounded, for
// codecache.Options.MaxEntries).
func (cc CompileConfig) memoCapacity() int {
	switch {
	case cc.MemoCapacity > 0:
		return cc.MemoCapacity
	case cc.MemoCapacity < 0:
		return 0
	}
	return DefaultMemoCapacity
}

// watchdogFactor resolves the configured deadline multiple.
func (cc CompileConfig) watchdogFactor() int64 {
	if cc.WatchdogFactor > 0 {
		return int64(cc.WatchdogFactor)
	}
	return DefaultWatchdogFactor
}

// CompileStats is the background-compilation accounting.
type CompileStats struct {
	// Enqueued/Installed/Canceled/Failed count background compilations
	// through their lifecycle (all zero in synchronous mode).
	Enqueued  int64
	Installed int64
	Canceled  int64
	Failed    int64
	// MemoHits/MemoMisses count content-hash lookups (both paths), against
	// the private memo or the shared fleet cache.
	MemoHits   int64
	MemoMisses int64
	// DedupeWaits counts lookups that joined another tenant's in-flight
	// compile of the same key instead of compiling (shared cache only;
	// every dedupe wait is also counted as a miss).
	DedupeWaits int64
	// WorkCycles is the simulated compile occupancy performed off the
	// critical path (the latency model's cost per installed region). It
	// is deliberately excluded from Stats.TotalCycles: hiding this work
	// is the point of background compilation.
	WorkCycles int64
	// LatencySum accumulates observed enqueue→install latencies (the
	// per-region value is RegionStats.CompileLatency).
	LatencySum int64
	// MaxQueueDepth is the high-water mark of in-flight compilations.
	MaxQueueDepth int
	// WorkerPanics counts compile jobs that panicked and were converted
	// into failed-compile events (the region is quarantined).
	WorkerPanics int64
	// WatchdogKills counts background compiles killed at their simulated
	// watchdog deadline.
	WatchdogKills int64
	// Rejected counts install-time validation rejections of poisoned
	// compile results (content-checksum mismatch or broken structural
	// invariants).
	Rejected int64
	// Quarantined counts regions permanently barred from compiling (a
	// worker panic in their compile, or the health controller's
	// quarantine level at the moment they became hot).
	Quarantined int64
	// MemoEvictions counts memo entries evicted by the capacity bound or
	// injected memo pressure.
	MemoEvictions int64
}

// errInjectedCompileFail marks chaos-injected compile failures so the
// cooldown policy can tell them apart from genuinely unschedulable
// regions (see compileFailBackoff).
var errInjectedCompileFail = errors.New("faultinject: simulated compile failure")

// errCompilePanic marks a compile-worker panic converted into a
// failed-compile event; the region is quarantined, so no retry policy
// applies.
var errCompilePanic = errors.New("dynopt: compile worker panicked")

// errWatchdogTimeout marks a background compile killed at its watchdog
// deadline. Like injected failures it is transient — the host was slow,
// not the region unschedulable — so it backs off additively.
var errWatchdogTimeout = errors.New("dynopt: compile watchdog deadline overrun")

// errPoisonedResult marks a compile result rejected by install-time
// validation; also transient (a fresh compile of the same input is
// expected to come out clean).
var errPoisonedResult = errors.New("dynopt: poisoned compile result rejected")

// compileInput is everything the pipeline reads, snapshotted on the
// simulation thread at enqueue: the superblock is immutable after Form,
// and the blacklist and pin sets are copied because the simulation thread
// mutates the live maps on alias exceptions while a worker may still be
// compiling.
type compileInput struct {
	entry     int
	sb        *region.Superblock
	optCfg    opt.Config
	scfg      sched.Config
	blacklist alias.Blacklist
	machine   vliw.Config
}

// compileOutput is the pipeline's result plus everything the install
// point needs to replay the compilation's simulated costs — memo hits
// hand back the same object, so a hit must be observationally identical
// to a re-run.
type compileOutput struct {
	cr              *vliw.CompiledRegion
	alloc           core.Stats
	working         core.WorkingSets
	seqLen          int
	numOps          int64
	guestInsts      int
	memOps          int
	overflowRetries int
	err             error
	// checksum is the content hash of cr, stamped by the worker right
	// after the pipeline finishes; the install point recomputes it to
	// reject results corrupted in flight (see admitOutput).
	checksum uint64
	// panicked marks a result synthesized from a recovered worker panic
	// (err carries the panic value wrapped in errCompilePanic).
	panicked bool
}

// pendingCompile is one in-flight background compilation.
type pendingCompile struct {
	entry      int
	seq        int64 // enqueue order, the (readyAt, seq) tie break
	enqueuedAt int64 // simulated cycle of the enqueue
	readyAt    int64 // earliest simulated cycle the result may install
	deadline   int64 // watchdog kill point: enqueue cycle + cost × watchdog factor
	key        compilequeue.Key
	memoHit    bool
	recompile  bool // old code still installed (promotion-style recompile)
	// hung marks a chaos-injected compile hang: no job is submitted, and
	// the pending entry is killed by the watchdog at deadline.
	hung bool
	// out is written by the worker then published by closing done; on a
	// memo hit it is set at enqueue and done stays nil.
	out  *compileOutput
	done chan struct{}
	// flight is the shared-cache single-flight this enqueue leads or
	// joined (shared mode only); the install point takes the result from
	// it when out is still nil. deduped marks the follower case — this
	// enqueue joined another tenant's flight instead of leading one — so
	// the install point can attribute its latency as dedupe wait.
	flight  *codecache.Flight[*compileOutput]
	deduped bool
}

// at is the pending compile's queue event time: its install point, or —
// for a hung job — the watchdog deadline at which it is killed. Both are
// pure functions of the simulated clock and the superblock, so the
// install order never depends on host timing.
func (p *pendingCompile) at() int64 {
	if p.hung {
		return p.deadline
	}
	return p.readyAt
}

// bgCompile is the System's background-compilation state (nil when
// Compile.Workers == 0).
type bgCompile struct {
	pool *compilequeue.Pool
	// sharedPool marks pool as fleet-owned: the System must never close
	// it (other tenants' compiles are still running on it).
	sharedPool bool
	// pending maps a region entry to its live pending compile
	// (single-flight per entry); queue holds the same entries in install
	// order (readyAt, then enqueue seq).
	pending map[int]*pendingCompile
	queue   []*pendingCompile
	seq     int64
}

// newCompileInput snapshots entry's compile inputs, forming (and caching)
// its superblock on first use.
func (s *System) newCompileInput(entry int) (*compileInput, error) {
	sb, ok := s.sbCache[entry]
	if !ok {
		var err error
		sb, err = region.Form(s.prog, s.it.Prof, entry, s.cfg.Region)
		if err != nil {
			return nil, err
		}
		s.sbCache[entry] = sb
	}
	s.recoveryOf(entry) // create the ladder controller on first compile
	// The effective tier folds the health controller's no-speculation
	// clamp; it flows into both the opt and sched configs, and through
	// them into the memo key, so clamped and unclamped compiles of the
	// same region never collide in the memo.
	et := s.effectiveTier(entry)
	in := &compileInput{
		entry:   entry,
		sb:      sb,
		optCfg:  s.optConfig(et),
		machine: s.cfg.Machine,
	}
	if bl := s.blacklist[entry]; len(bl) > 0 {
		in.blacklist = make(alias.Blacklist, len(bl))
		for p := range bl {
			in.blacklist[p] = true
		}
	}
	var pins map[int]bool
	if live := s.pinnedLoads[entry]; len(live) > 0 {
		pins = make(map[int]bool, len(live))
		for op := range live {
			pins[op] = true
		}
	}
	in.scfg = sched.Config{
		Mode:           s.cfg.Mode,
		NumAliasRegs:   s.cfg.NumAliasRegs,
		StoreReorder:   s.cfg.StoreReorder && et < TierNoStoreReorder,
		ForceNonSpec:   et >= TierConservative,
		PinnedOps:      pins,
		PressureMargin: 4,
		Machine:        s.cfg.Machine,
		Alloc: core.Options{
			DisableAnti:     s.cfg.Ablation.Anti,
			DisableRotation: s.cfg.Ablation.Rotation,
		},
	}
	return in, nil
}

// arenaPool recycles translate arenas across compiles. Each pipeline run
// (synchronous path or worker goroutine) takes one arena for its
// duration; installed code is frozen out of the arena before it returns
// to the pool, so nothing that outlives the compile aliases pooled
// memory.
var arenaPool = sync.Pool{New: func() interface{} { return ir.NewArena() }}

// compilePipeline is the active compile path. Tests swap in
// runCompilePipelineRef to differentially check the flat-arena pipeline
// against the retained reference implementation.
var compilePipeline = runCompilePipeline

// runCompilePipeline is the pure compile path: translate, optimize,
// compute dependences, schedule with alias register allocation (with the
// overflow retry ladder), and bake the VLIW code. It touches nothing but
// its input, so it is safe on a worker goroutine.
//
// Every intermediate structure is recycled: the IR comes from a pooled
// arena, and the alias table, dependence set and optimizer result are
// handed back to their pools on exit. Only the frozen CompiledRegion and
// plain-value stats escape (the memo retains compile outputs forever).
func runCompilePipeline(in *compileInput) *compileOutput {
	out := &compileOutput{
		guestInsts: len(in.sb.Insts),
		memOps:     in.sb.NumMemOps(),
	}
	ar := arenaPool.Get().(*ir.Arena)
	defer func() {
		ar.Reset()
		arenaPool.Put(ar)
	}()
	reg, err := xlate.TranslateArena(in.sb, ar)
	if err != nil {
		out.err = err
		return out
	}
	tbl := alias.BuildTable(reg, in.blacklist)
	optRes := opt.Run(reg, tbl, in.optCfg)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	// The deferred closures release whatever tbl/ds refer to at return —
	// the retry ladder below releases and rebinds them mid-flight.
	defer func() {
		tbl.Release()
		ds.Release()
		optRes.Release()
	}()

	scfg := in.scfg
	sc, err := sched.Run(reg, tbl, ds, scfg)
	if err != nil {
		// Alias register overflow: retry pinned to non-speculation mode,
		// then give up on eliminations entirely. The failed attempt left
		// partial annotations on the ops; clear them first.
		out.overflowRetries++
		resetAnnotations(reg)
		scfg.ForceNonSpec = true
		sc, err = sched.Run(reg, tbl, ds, scfg)
		if err != nil {
			// Re-translate into the same arena (no Reset mid-compile —
			// the failed region's slab space is simply left behind).
			reg, err = xlate.TranslateArena(in.sb, ar)
			if err != nil {
				out.err = err
				return out
			}
			tbl.Release()
			ds.Release()
			tbl = alias.BuildTable(reg, in.blacklist)
			ds = deps.Compute(reg, tbl)
			sc, err = sched.Run(reg, tbl, ds, scfg)
			if err != nil {
				out.err = fmt.Errorf("dynopt: region B%d cannot be scheduled: %w", in.entry, err)
				return out
			}
		}
	}

	out.numOps = int64(len(reg.Ops))
	// Freeze the schedule and region out of the arena: the compiled
	// region is retained for the lifetime of the system.
	fseq, freg := ir.Freeze(sc.Seq, reg)
	out.cr = in.machine.Compile(fseq, freg, len(in.sb.Insts))
	out.alloc = sc.Alloc.Stats
	out.working = core.MeasureWorkingSets(sc.Alloc, in.sb.NumMemOps())
	out.seqLen = len(sc.Seq)
	sc.Release()
	return out
}

// runCompilePipelineRef is the retained reference compile path: private
// never-recycled IR allocations and the heap-based reference scheduler,
// with no pooling hand-backs. TestCompileFlatMatchesReference drives it
// against runCompilePipeline and requires identical outputs.
func runCompilePipelineRef(in *compileInput) *compileOutput {
	out := &compileOutput{
		guestInsts: len(in.sb.Insts),
		memOps:     in.sb.NumMemOps(),
	}
	reg, err := xlate.Translate(in.sb)
	if err != nil {
		out.err = err
		return out
	}
	tbl := alias.BuildTable(reg, in.blacklist)
	optRes := opt.Run(reg, tbl, in.optCfg)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)

	scfg := in.scfg
	sc, err := sched.RunRef(reg, tbl, ds, scfg)
	if err != nil {
		out.overflowRetries++
		resetAnnotations(reg)
		scfg.ForceNonSpec = true
		sc, err = sched.RunRef(reg, tbl, ds, scfg)
		if err != nil {
			reg, err = xlate.Translate(in.sb)
			if err != nil {
				out.err = err
				return out
			}
			tbl = alias.BuildTable(reg, in.blacklist)
			ds = deps.Compute(reg, tbl)
			sc, err = sched.RunRef(reg, tbl, ds, scfg)
			if err != nil {
				out.err = fmt.Errorf("dynopt: region B%d cannot be scheduled: %w", in.entry, err)
				return out
			}
		}
	}

	out.numOps = int64(len(reg.Ops))
	out.cr = in.machine.Compile(sc.Seq, reg, len(in.sb.Insts))
	out.alloc = sc.Alloc.Stats
	out.working = core.MeasureWorkingSets(sc.Alloc, in.sb.NumMemOps())
	out.seqLen = len(sc.Seq)
	return out
}

// runCompileJob is the fault-domain wrapper every fresh compile runs
// inside (on a worker goroutine or in place on the synchronous path): it
// recovers a panicking pipeline into a failed compileOutput — so a host
// bug in one compile can never take down the process or wedge the
// install point — and stamps the content checksum the install-time
// validation recomputes. The chaos knobs are plumbed in as plain values
// drawn on the simulation thread (drawHostFaults); the job itself makes
// no decisions.
func runCompileJob(in *compileInput, panicInject bool, poison faultinject.PoisonMode) (out *compileOutput) {
	defer func() {
		if r := recover(); r != nil {
			out = &compileOutput{
				guestInsts: len(in.sb.Insts),
				memOps:     in.sb.NumMemOps(),
				panicked:   true,
				err:        fmt.Errorf("%w: B%d: %v", errCompilePanic, in.entry, r),
			}
		}
	}()
	if panicInject {
		panic("faultinject: injected compile-worker panic")
	}
	out = compilePipeline(in)
	if out.err != nil {
		return out
	}
	if poison == faultinject.PoisonStructure {
		// Corrupt before the checksum stamp: the hash is consistent with
		// the broken contents, so only the structural invariant check can
		// reject it.
		mid := len(out.cr.Seq) / 2
		out.cr.Seq[mid].Dst = ir.VReg(out.cr.Region.NumVRegs + 1<<16)
	}
	out.checksum = out.cr.Checksum()
	if poison == faultinject.PoisonChecksum {
		// Corrupt after the stamp, in a field the structural check does
		// not constrain: only the checksum comparison can reject it.
		out.cr.Seq[0].Imm ^= 0x5a5a5a5a
	}
	return out
}

// keyScratch recycles the sorted-encoding buffers memoKey needs for the
// pin and blacklist sets: hashing runs on the dispatch path at every
// enqueue, so key construction must not allocate.
type keyScratch struct {
	ints  []int
	pairs []alias.Pair
}

var keyScratchPool = sync.Pool{New: func() interface{} { return &keyScratch{} }}

// memoKey canonically hashes a compile input: every superblock byte plus
// every configuration bit the pipeline reads. Fields that cannot vary
// within one System (the machine model, ablations, hardware mode) are
// still folded — they are cheap and keep the key self-contained.
func memoKey(in *compileInput) compilequeue.Key {
	k := compilequeue.NewKey()
	sb := in.sb
	k = k.Int(int64(sb.Entry)).Int(int64(sb.FinalTarget)).Int(int64(sb.UnrollFactor))
	k = k.Int(int64(len(sb.Blocks)))
	for _, b := range sb.Blocks {
		k = k.Int(int64(b))
	}
	k = k.Int(int64(len(sb.Insts)))
	for i := range sb.Insts {
		gi := &sb.Insts[i]
		k = k.Int(int64(gi.Inst.Op)).Int(int64(gi.Inst.Rd)).Int(int64(gi.Inst.Rs1)).Int(int64(gi.Inst.Rs2))
		k = k.Int(gi.Inst.Imm).Word(math.Float64bits(gi.Inst.FImm)).Int(int64(gi.Inst.Target))
		k = k.Bool(gi.IsGuard).Bool(gi.OnTraceTaken).Int(int64(gi.OffTrace))
	}
	k = k.Bool(in.optCfg.LoadElim).Bool(in.optCfg.StoreElim).Bool(in.optCfg.Speculative)
	sc := &in.scfg
	k = k.Int(int64(sc.Mode)).Int(int64(sc.NumAliasRegs)).Bool(sc.StoreReorder).Bool(sc.ForceNonSpec)
	k = k.Int(int64(sc.PressureMargin)).Bool(sc.Alloc.DisableAnti).Bool(sc.Alloc.DisableRotation)
	if len(sc.PinnedOps) == 0 && len(in.blacklist) == 0 {
		// Common case: no pins, no blacklist. Encode the zero lengths
		// without touching the scratch pool.
		return k.Int(0).Int(0)
	}
	scr := keyScratchPool.Get().(*keyScratch)
	pins := scr.ints[:0]
	for op := range sc.PinnedOps {
		pins = append(pins, op)
	}
	slices.Sort(pins)
	k = k.Int(int64(len(pins)))
	for _, op := range pins {
		k = k.Int(int64(op))
	}
	pairs := scr.pairs[:0]
	for p := range in.blacklist {
		pairs = append(pairs, p)
	}
	slices.SortFunc(pairs, func(a, b alias.Pair) int {
		if c := cmp.Compare(a.A, b.A); c != 0 {
			return c
		}
		return cmp.Compare(a.B, b.B)
	})
	k = k.Int(int64(len(pairs)))
	for _, p := range pairs {
		k = k.Int(int64(p.A)).Int(int64(p.B))
	}
	scr.ints, scr.pairs = pins, pairs
	keyScratchPool.Put(scr)
	return k
}

// outputClean reports whether a fresh compile result is fit for the
// shared fleet cache: not panicked, no pipeline error, and
// self-consistent (the content checksum recomputes and the structural
// invariants hold). It mirrors admitOutput without the stats and
// quarantine side effects — the leading tenant decides cache admission
// with it, so a poisoned or failed result never enters the shared table,
// while every installing tenant still re-screens through admitOutput.
func outputClean(out *compileOutput) bool {
	if out == nil || out.panicked || out.err != nil || out.cr == nil {
		return false
	}
	if out.cr.Checksum() != out.checksum {
		return false
	}
	return out.cr.Validate() == nil
}

// compileOutputBytes sizes a compile output for byte-budgeted caches by
// its dominant retained allocation, the frozen compiled region.
func compileOutputBytes(out *compileOutput) int64 {
	if out == nil || out.cr == nil {
		return 0
	}
	return out.cr.Bytes()
}

// drawHostFaults performs the per-fresh-compile host-fault draws, in a
// fixed order on the simulation thread, so the injector's sequence is
// independent of the worker count and host timing. withHang is true only
// on the background path — a synchronous compile has no watchdog
// deadline to overrun. A drawn hang dominates (the job never finishes,
// so a panic or poison inside it would be unobservable), and a drawn
// panic dominates poison (a panicking job produces no result to poison).
func (s *System) drawHostFaults(entry int, withHang bool) (panicInject, hang bool, poison faultinject.PoisonMode) {
	if s.inj == nil {
		return false, false, faultinject.PoisonNone
	}
	panicInject = s.inj.WorkerPanic()
	if withHang {
		hang = s.inj.CompileHang()
	}
	poison = s.inj.PoisonResult()
	now, tier := s.now(), s.tierOf(entry)
	if hang {
		s.tel.chaosInjected(now, entry, tier, telemetry.CauseWatchdog)
		s.trace("injected compile hang for B%d", entry)
		return false, true, faultinject.PoisonNone
	}
	if panicInject {
		s.tel.chaosInjected(now, entry, tier, telemetry.CauseWorkerPanic)
		s.trace("injected compile-worker panic for B%d", entry)
		return true, false, faultinject.PoisonNone
	}
	if poison != faultinject.PoisonNone {
		s.tel.chaosInjected(now, entry, tier, telemetry.CausePoison)
		s.trace("injected poisoned compile result for B%d", entry)
	}
	return false, false, poison
}

// memoPressureDraw applies injected host memory pressure to the private
// memo ahead of a lookup: the LRU entry is evicted, so a previously
// memoized region may have to recompile.
func (s *System) memoPressureDraw(entry int) {
	if s.inj == nil || !s.inj.MemoPressure() {
		return
	}
	if s.cache.DropOldest() {
		s.tel.chaosInjected(s.now(), entry, s.tierOf(entry), telemetry.CauseMemoPressure)
		s.tel.memoTable(s.cache.Len(), s.cache.Evictions())
		s.trace("injected memo pressure: dropped LRU entry (%d left)", s.cache.Len())
	}
}

// lookupOutput probes the compile-output cache for in's key and counts
// the hit or miss in Stats and telemetry — the one cache lookup both
// compile paths share. out is non-nil on a hit. Without a cache it counts
// nothing and returns a nil output.
//
// The two caches follow different rules, on purpose:
//   - The private memo does a plain Get here and a Put only once the
//     install point has admitted the result (storeOutput). Both happen on
//     the simulation thread at simulated-clock points, so its hit, miss
//     and eviction counts are identical at any worker count.
//   - The fleet cache does a single-flight Lookup here, and the leader
//     fills it with Complete on the worker as soon as the compile ends.
//     Tenants therefore never wait on each other's install points; a miss
//     either leads (flight != nil, leader) or joins another tenant's
//     compile (flight != nil, !leader).
func (s *System) lookupOutput(entry int, in *compileInput) (key compilequeue.Key, out *compileOutput, flight *codecache.Flight[*compileOutput], leader bool) {
	if s.cache == nil {
		return key, nil, nil, false
	}
	key = memoKey(in)
	var hit bool
	if s.fleetCache {
		out, hit, flight, leader = s.cache.Lookup(key)
	} else {
		s.memoPressureDraw(entry)
		out, hit = s.cache.Get(key)
	}
	if hit {
		s.Stats.Compile.MemoHits++
	} else {
		s.Stats.Compile.MemoMisses++
		if flight != nil && !leader {
			s.Stats.Compile.DedupeWaits++
		}
	}
	s.tel.memoLookup(hit)
	return key, out, flight, leader
}

// storeOutput records an admitted fresh compile in the private memo (the
// fleet cache was already filled by the compile's leader).
func (s *System) storeOutput(key compilequeue.Key, out *compileOutput) {
	if s.cache == nil || s.fleetCache {
		return
	}
	s.cache.Put(key, out)
	s.tel.memoTable(s.cache.Len(), s.cache.Evictions())
}

// admitOutput decides whether a fresh compile result may be installed.
// Three screens, in order: a recovered worker panic (the result never
// existed, and the region is quarantined — the pipeline provably cannot
// handle this input), the pipeline's own error, then the poisoned-result
// screen — the content checksum recomputed on the simulation thread
// against the worker's stamp, and the structural invariants for
// corruption that predates the stamp. A rejected result is never
// memoized and never dispatched. Memo hits were admitted when first
// stored, so re-admitting them is a pure double-check.
func (s *System) admitOutput(entry int, out *compileOutput) error {
	if out.panicked {
		s.Stats.Compile.WorkerPanics++
		s.recordHostFault(entry, telemetry.CauseWorkerPanic)
		s.quarantineRegion(entry, telemetry.CauseWorkerPanic)
		return out.err
	}
	if out.err != nil {
		return out.err
	}
	if got := out.cr.Checksum(); got != out.checksum {
		s.Stats.Compile.Rejected++
		s.recordHostFault(entry, telemetry.CausePoison)
		return fmt.Errorf("%w: B%d content checksum %#x, stamped %#x", errPoisonedResult, entry, got, out.checksum)
	}
	if verr := out.cr.Validate(); verr != nil {
		s.Stats.Compile.Rejected++
		s.recordHostFault(entry, telemetry.CausePoison)
		return fmt.Errorf("%w: B%d structural invariants: %v", errPoisonedResult, entry, verr)
	}
	return nil
}

// compile is the synchronous compile-and-install path (Compile.Workers ==
// 0): the pipeline runs in place and the region installs instantly,
// charging Opt/SchedCycles on the critical path.
func (s *System) compile(entry int) error {
	if s.inj != nil && s.inj.CompileFail() {
		s.trace("injected compile failure for B%d", entry)
		s.tel.chaosInjected(s.now(), entry, s.tierOf(entry), telemetry.CauseCompileFail)
		return fmt.Errorf("%w for B%d", errInjectedCompileFail, entry)
	}
	in, err := s.newCompileInput(entry)
	if err != nil {
		return err
	}
	// Config.Validate keeps the fleet cache off this path, so the lookup
	// is a private-memo Get (or nothing) and never yields a flight.
	key, out, _, _ := s.lookupOutput(entry, in)
	memoHit := out != nil
	if !memoHit {
		panicInject, _, poison := s.drawHostFaults(entry, false)
		out = runCompileJob(in, panicInject, poison)
	}
	if err := s.admitOutput(entry, out); err != nil {
		return err
	}
	if !memoHit {
		s.storeOutput(key, out)
	}
	s.installOutput(entry, out, 0)
	return nil
}

// requestCompile starts a compilation for entry: synchronously in the
// legacy path, or as a background enqueue. An error is returned only for
// failures observable at request time (injected chaos failures, region
// formation, and — synchronously — the whole pipeline); background
// pipeline failures surface at the install point instead. Suppressed
// requests (a quarantined region, or compilation shed by the health
// controller) return nil silently: not compiling is the intended
// outcome, not a failure to back off from.
func (s *System) requestCompile(entry int) error {
	if !s.compileAllowed(entry) {
		return nil
	}
	if s.bg == nil {
		return s.compile(entry)
	}
	return s.enqueueCompile(entry)
}

// recompileRegion re-(or newly-)compiles entry after its compile inputs
// changed (a tier move, a hardened pair, a pinned load): synchronously in
// place, or by cancelling any now-stale pending compile and enqueueing a
// fresh one against the updated inputs. When compilation is suppressed,
// both the pending compile and any installed code are built against the
// old inputs — throw both away; the region re-forms once compiles are
// allowed again.
func (s *System) recompileRegion(entry int) error {
	if !s.compileAllowed(entry) {
		s.cancelPending(entry, telemetry.CauseHealth)
		if s.disp[entry].code != nil {
			s.dropCode(entry)
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), entry, s.tierOf(entry), telemetry.CauseHealth)
		}
		return nil
	}
	if s.bg == nil {
		return s.compile(entry)
	}
	s.cancelPending(entry, telemetry.CauseStale)
	return s.enqueueCompile(entry)
}

// enqueueCompile snapshots entry's inputs, fixes the install point from
// the simulated clock and the superblock alone, and hands the pure
// pipeline to the worker pool (unless the memo already has the result).
// Single-flight per entry: a live pending compile absorbs the request.
func (s *System) enqueueCompile(entry int) error {
	bg := s.bg
	if bg.pending[entry] != nil {
		return nil
	}
	// The chaos draw happens at enqueue on the simulation thread, so the
	// injector's sequence is independent of the worker count.
	if s.inj != nil && s.inj.CompileFail() {
		s.trace("injected compile failure for B%d", entry)
		s.tel.chaosInjected(s.now(), entry, s.tierOf(entry), telemetry.CauseCompileFail)
		return fmt.Errorf("%w for B%d", errInjectedCompileFail, entry)
	}
	in, err := s.newCompileInput(entry)
	if err != nil {
		return err
	}
	cost := int64(s.cfg.Machine.CompileCyclesPerInst)*int64(len(in.sb.Insts)) +
		int64(s.cfg.Machine.CompileCyclesPerCheck)*int64(in.sb.NumMemOps())
	bg.seq++
	now := s.now()
	p := &pendingCompile{
		entry:      entry,
		seq:        bg.seq,
		enqueuedAt: now,
		readyAt:    now + cost,
		deadline:   now + cost*s.cfg.Compile.watchdogFactor(),
		recompile:  s.disp[entry].code != nil,
	}
	key, out, flight, leader := s.lookupOutput(entry, in)
	p.key, p.out, p.memoHit = key, out, out != nil
	switch {
	case p.memoHit:
		// Host faults only strike fresh compiles: a hit runs no worker
		// job, so there is nothing to panic, hang or poison.
	case flight != nil && !leader:
		// Another tenant's compile of this key is in flight: join it.
		// The install point blocks on the flight only once the simulated
		// clock passes readyAt, exactly like a private job.
		p.flight, p.deduped = flight, true
	default:
		panicInject, hang, poison := s.drawHostFaults(entry, true)
		if hang {
			p.hung = true
			if flight != nil {
				// A hung leader never submits a job, so it must settle the
				// flight here or followers on other tenants would wait
				// forever. The synthetic watchdog failure is never
				// inserted (insert=false): the next lookup elects a fresh
				// leader.
				s.cache.Complete(key, flight, &compileOutput{
					guestInsts: len(in.sb.Insts),
					memOps:     in.sb.NumMemOps(),
					err:        fmt.Errorf("%w for B%d", errWatchdogTimeout, entry),
				}, false)
			}
			break
		}
		if bg.pool == nil {
			bg.pool = compilequeue.NewPool(s.cfg.Compile.Workers)
		}
		if flight != nil {
			// Fleet-cache leader: the result travels to this tenant's
			// install point and to every follower through the flight.
			p.flight = flight
			cache := s.cache
			bg.pool.Submit(func() {
				out := runCompileJob(in, panicInject, poison)
				cache.Complete(key, flight, out, outputClean(out))
			})
			break
		}
		p.done = make(chan struct{})
		job := p
		bg.pool.Submit(func() {
			job.out = runCompileJob(in, panicInject, poison)
			close(job.done)
		})
	}
	bg.pending[entry] = p
	q := append(bg.queue, p)
	for i := len(q) - 1; i > 0; i-- {
		prev := q[i-1]
		if prev.at() < q[i].at() || (prev.at() == q[i].at() && prev.seq < q[i].seq) {
			break
		}
		q[i-1], q[i] = q[i], q[i-1]
	}
	bg.queue = q
	s.Stats.Compile.Enqueued++
	depth := len(bg.pending)
	if depth > s.Stats.Compile.MaxQueueDepth {
		s.Stats.Compile.MaxQueueDepth = depth
	}
	s.tel.compileEnqueue(now, entry, s.tierOf(entry), cost, depth, p.memoHit)
	s.trace("enqueue compile B%d: ready at cycle %d (cost %d, depth %d)", entry, p.readyAt, cost, depth)
	return nil
}

// cancelPending discards entry's pending compile, if any. The worker (if
// still running) finishes into an unread result; the pool drains it at
// Close.
func (s *System) cancelPending(entry int, cause telemetry.Cause) {
	bg := s.bg
	if bg == nil {
		return
	}
	p := bg.pending[entry]
	if p == nil {
		return
	}
	delete(bg.pending, entry)
	for i, q := range bg.queue {
		if q == p {
			bg.queue = append(bg.queue[:i], bg.queue[i+1:]...)
			break
		}
	}
	s.Stats.Compile.Canceled++
	s.tel.compileCancel(s.now(), entry, s.tierOf(entry), cause, len(bg.pending))
	s.trace("cancel pending compile B%d (%s)", entry, cause)
}

// drainCompiles installs every pending compilation whose event time the
// simulated clock has passed, in deterministic (event time, enqueue-seq)
// order. This is the only place the simulation thread blocks on a worker
// — and only when the simulated install point has already arrived. Hung
// jobs never block: their done channel is nil and the watchdog kills
// them at their deadline without reading a result.
func (s *System) drainCompiles() {
	bg := s.bg
	if bg == nil {
		return
	}
	now := s.now()
	for len(bg.queue) > 0 && bg.queue[0].at() <= now {
		p := bg.queue[0]
		copy(bg.queue, bg.queue[1:])
		bg.queue = bg.queue[:len(bg.queue)-1]
		delete(bg.pending, p.entry)
		if p.done != nil {
			<-p.done
		}
		if p.flight != nil {
			// Shared-cache job (led here or by another tenant): the result
			// travels through the flight, not p.out.
			<-p.flight.Done()
			if p.out == nil {
				p.out = p.flight.Value()
			}
		}
		s.installPending(p)
	}
}

// installPending applies one completed background compilation at its
// install point.
func (s *System) installPending(p *pendingCompile) {
	if p.hung {
		// Watchdog kill at the deadline. The job was never submitted (an
		// injected hang) or its result is simply never read, so the kill
		// point is a pure function of the simulated clock — no blocking,
		// no host-timing dependence. The wasted occupancy up to the
		// deadline is charged as compile work.
		s.Stats.Compile.Failed++
		s.Stats.Compile.WatchdogKills++
		s.Stats.Compile.WorkCycles += p.deadline - p.enqueuedAt
		s.tel.compileInstalled(p.deadline-p.enqueuedAt, len(s.bg.pending))
		s.recordHostFault(p.entry, telemetry.CauseWatchdog)
		if p.recompile {
			s.dropCode(p.entry)
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), p.entry, s.tierOf(p.entry), telemetry.CauseCompileFail)
		} else {
			s.compileFailBackoff(p.entry, errWatchdogTimeout)
		}
		s.trace("watchdog killed compile B%d at its deadline (cycle %d)", p.entry, p.deadline)
		return
	}
	latency := s.now() - p.enqueuedAt
	s.Stats.Compile.WorkCycles += p.readyAt - p.enqueuedAt
	s.Stats.Compile.LatencySum += latency
	s.tel.compileInstalled(latency, len(s.bg.pending))
	if p.deduped {
		s.tel.dedupeWaited(latency)
	}
	out := p.out
	if err := s.admitOutput(p.entry, out); err != nil {
		s.Stats.Compile.Failed++
		if p.recompile {
			// The superseding compile failed: the installed code is built
			// against stale inputs, so drop it (the synchronous path's
			// recompile-failure consequence).
			s.dropCode(p.entry)
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), p.entry, s.tierOf(p.entry), telemetry.CauseCompileFail)
		} else if !out.panicked {
			// A panicked region is quarantined — it will never compile
			// again, so no cooldown applies.
			s.compileFailBackoff(p.entry, err)
		}
		s.trace("background compile B%d failed: %v", p.entry, err)
		return
	}
	if !p.memoHit {
		s.storeOutput(p.key, out)
	}
	s.installOutput(p.entry, out, latency)
	s.Stats.Compile.Installed++
}

// installOutput installs a successful compile result: cycle accounting,
// code cache insert (with capacity eviction), per-region statistics and
// the compile telemetry event. Shared by both compile paths.
func (s *System) installOutput(entry int, out *compileOutput, latency int64) {
	s.Stats.OverflowRetries += out.overflowRetries
	if s.bg == nil {
		// Synchronous compilation executes on the critical path (the
		// paper's Figure 18 cost); background compilation's occupancy is
		// charged to CompileStats.WorkCycles at the install point instead.
		s.Stats.OptCycles += out.numOps * int64(s.cfg.Machine.OptCyclesPerOp)
		s.Stats.SchedCycles += out.numOps * int64(s.cfg.Machine.SchedCyclesPerOp)
	}
	delete(s.injFailStreak, entry)

	rr := s.recoveryOf(entry)
	recompile := s.disp[entry].code != nil
	if recompile {
		s.Stats.Recompiles++
		s.trace("recompile B%d: %d ops, %d cycles, tier=%s", entry, out.seqLen, out.cr.Cycles, rr.tier)
	} else {
		s.evictForCapacity(entry)
		s.Stats.RegionsCompiled++
		s.trace("compile B%d: %d guest insts -> %d ops, %d cycles, %d mem ops, P=%d C=%d ws=%d",
			entry, out.guestInsts, out.seqLen, out.cr.Cycles, out.memOps,
			out.alloc.PBits, out.alloc.CBits, out.alloc.WorkingSet)
	}
	s.setCode(entry, &compiled{
		cr: out.cr, lastUse: s.entrySeq,
		installedAt: s.now(), fresh: true,
	})

	rs := RegionStats{
		Entry:          entry,
		GuestInsts:     out.guestInsts,
		MemOps:         out.memOps,
		Alloc:          out.alloc,
		Working:        out.working,
		SeqLen:         out.seqLen,
		Cycles:         out.cr.Cycles,
		CompileLatency: latency,
		Tier:           rr.tier,
	}
	if idx, ok := s.regionIdx[entry]; ok {
		s.Stats.Regions[idx] = rs
	} else {
		s.regionIdx[entry] = len(s.Stats.Regions)
		s.Stats.Regions = append(s.Stats.Regions, rs)
	}
	s.tel.regionCompile(s.now(), entry, rr.tier, recompile, &rs)
}

// compileFailBackoff applies the hot-path cooldown after a failed
// compilation. Genuinely unschedulable regions double their heat
// requirement — the failure is structural and will repeat. Injected chaos
// failures, watchdog kills and rejected poisoned results are transient by
// construction (a host flake, not a property of the region), so they back
// off additively with a bounded streak (reset on the next successful
// install); without the distinction, repeated host faults in a chaos soak
// compound the doubling and pin hot regions in the interpreter for the
// rest of the run.
const injFailStreakCap = 8

func (s *System) compileFailBackoff(entry int, err error) {
	count := s.it.Prof.BlockCounts[entry]
	if errors.Is(err, errInjectedCompileFail) || errors.Is(err, errWatchdogTimeout) ||
		errors.Is(err, errPoisonedResult) {
		streak := s.injFailStreak[entry] + 1
		if streak > injFailStreakCap {
			streak = injFailStreakCap
		}
		s.injFailStreak[entry] = streak
		s.disp[entry].cooldown = count + streak*s.cfg.HotThreshold
		return
	}
	s.disp[entry].cooldown = count * 2
}

// abandonCompiles cancels every still-pending compilation at the end of
// the run and releases the worker pool.
func (s *System) abandonCompiles() {
	bg := s.bg
	if bg == nil {
		return
	}
	for len(bg.queue) > 0 {
		s.cancelPending(bg.queue[0].entry, telemetry.CauseRunEnd)
	}
	if bg.pool != nil {
		if !bg.sharedPool {
			// A fleet-owned pool is still serving other tenants; its
			// creator closes it after every System using it has finished.
			bg.pool.Close()
		}
		bg.pool = nil
	}
}
