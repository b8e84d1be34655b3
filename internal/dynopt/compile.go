// The compile path: the pipeline (xlate → opt → constraint/deps → sched →
// alias allocation → vliw.Compile) is a pure function over immutable
// inputs, every compile request runs one sequence (enqueueCompile), and
// every result installs through one install point (installPending).
// Compile.Workers decides only when a compile installs. With Workers == 0
// it installs at its request: the job runs on the simulation thread and
// its Opt/SchedCycles are charged on the critical path (the paper's
// model). With Workers >= 1 it has a latency: the job runs on the
// process's compile workers (compilequeue.Submit), and the compile
// installs at its readyAt.
//
// Determinism rule: a queued region's install point is a pure function of
// the simulated clock — readyAt = enqueue-cycle + CompileCyclesPerInst ×
// guest insts + CompileCyclesPerCheck × guest mem ops, both derived from
// the superblock alone, never from the compile result or the wall clock.
// Every simulated decision (chaos draws, cache lookups, reuse, enqueue,
// install, cancellation) happens on the simulation thread; workers only evaluate
// the pure pipeline. Any Workers >= 1 therefore produces byte-identical
// stats, telemetry and guest state, and so does any host parallelism.
package dynopt

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"unsafe"

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

// CompileConfig configures the compile path.
type CompileConfig struct {
	// Workers selects when a compile installs, and nothing else. 0 (the
	// default) installs it at its request: the job runs on the simulation
	// thread, and its Opt/SchedCycles are charged on the critical path.
	// Workers >= 1 queues it: the job runs on the process's one compile
	// pool (GOMAXPROCS workers) while the interpreter keeps executing, and
	// the compile installs only once the simulated clock passes its
	// readyAt point. Every value >= 1 is the same program.
	Workers int
	// SharedCache, when non-nil, is the simulated shared code cache of a
	// fleet: a record of the exact compile inputs its tenants have
	// requested. Every request looks its key up there, and only the cache
	// counts the lookup: it holds no code and decides nothing, and the
	// output store (outputStore) holds and single-flights every build. So
	// each tenant's simulated results are byte-identical to a solo run, at
	// any Workers and any chaos.
	SharedCache *CodeCache
}

// watchdogFactor fixes a queued compile's watchdog deadline at
// enqueue-cycle + modelled-cost × watchdogFactor. Only an injected hang
// reaches it (a compile that does not hang installs at readyAt): it is
// killed there unread, and the region retries under the transient-failure
// backoff.
const watchdogFactor = 4

// CompileStats is the compile path's accounting.
type CompileStats struct {
	// Enqueued/Installed/Canceled/Failed count compilations through their
	// lifecycle: Enqueued == Installed + Failed + Canceled at the end of
	// every run. A compile that installs at its request never cancels.
	Enqueued  int64
	Installed int64
	Canceled  int64
	Failed    int64
	// WorkCycles is the simulated compile occupancy performed off the
	// critical path (the latency model's cost per installed region). It
	// is deliberately excluded from Stats.TotalCycles: hiding this work
	// is the point of background compilation. A compile that installs at
	// its request charges Opt/SchedCycles instead and never queues, so
	// WorkCycles, LatencySum and MaxQueueDepth stay zero at Workers 0.
	WorkCycles int64
	// LatencySum accumulates observed enqueue→install latencies (the
	// per-region value is RegionStats.CompileLatency).
	LatencySum int64
	// MaxQueueDepth is the high-water mark of queued compilations.
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

// compileInput is everything the pipeline reads, and its key. Every part
// is immutable: the superblock once filled, and the blacklist and pin sets
// because a hardening replaces the region record's maps instead of
// writing to them (regionRecord.harden). An input is therefore a plain
// value that a request, a job and the output store may all hold.
type compileInput struct {
	entry     int
	sb        *region.Superblock
	blacklist alias.Blacklist
	pins      map[int]bool
	key       compileKey
}

// compileKey is a compile input's identity, and the output store's and the
// fleet cache's key. It holds the superblock's content
// (region.Superblock.Key), the optimizer configuration, every sched.Config
// field but PinnedOps (named as there; Machine and Alloc whole, so a field
// added to vliw.Config or core.Options is in the key by construction) and
// the pin and blacklist sets (encodeSets). It holds no pointer, so == compares content: the pipeline
// is a pure function of the input, and inputs with equal keys compile to
// equal code, whichever program or region formed them.
type compileKey struct {
	trace          string
	opt            opt.Config
	Mode           sched.HWMode
	NumAliasRegs   int
	StoreReorder   bool
	ForceNonSpec   bool
	PressureMargin int
	Machine        vliw.Config
	Alloc          core.Options
	sets           string
}

// schedConfig is the scheduler configuration the input's key and pin set
// describe.
func (in *compileInput) schedConfig() sched.Config {
	k := &in.key
	return sched.Config{
		Mode:           k.Mode,
		NumAliasRegs:   k.NumAliasRegs,
		StoreReorder:   k.StoreReorder,
		ForceNonSpec:   k.ForceNonSpec,
		PinnedOps:      in.pins,
		PressureMargin: k.PressureMargin,
		Machine:        k.Machine,
		Alloc:          k.Alloc,
	}
}

// encodeSets returns the canonical encoding of a region's pin and
// blacklist sets for compileKey: "" when both are empty, else the sorted
// pins, each followed by a space, then '|' and the sorted pairs, each as
// " A:B". Equal sets encode equally whatever order they were hardened in,
// and unequal sets unequally. The sets hold only true entries (harden).
func encodeSets(pins map[int]bool, blacklist alias.Blacklist) string {
	if len(pins) == 0 && len(blacklist) == 0 {
		return ""
	}
	var pinBuf [16]int
	ps := pinBuf[:0]
	for p := range pins {
		ps = append(ps, p)
	}
	slices.Sort(ps)
	var pairBuf [16]alias.Pair
	bs := pairBuf[:0]
	for pr := range blacklist {
		bs = append(bs, pr)
	}
	slices.SortFunc(bs, func(x, y alias.Pair) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	b := make([]byte, 0, 64)
	for _, p := range ps {
		b = append(strconv.AppendInt(b, int64(p), 10), ' ')
	}
	b = append(b, '|')
	for _, pr := range bs {
		b = strconv.AppendInt(append(b, ' '), int64(pr.A), 10)
		b = strconv.AppendInt(append(b, ':'), int64(pr.B), 10)
	}
	return string(b)
}

// compileOutput is the pipeline's result, the input it was compiled from,
// and everything the install point needs to replay the compilation's
// simulated costs. Once admitted it is never written again: the installed
// code and the output store share it, and a store hit or join hands back
// the same object, so it must be observationally identical to a re-run. A
// hit's input may come from another System or program; its key equals the
// requester's, so the code is the requester's.
type compileOutput struct {
	in              compileInput
	cr              *vliw.CompiledRegion
	alloc           core.Stats
	working         core.WorkingSets
	numOps          int64
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

// pendingCompile is one compilation between its request and its install
// point. One that installs at its request lives on the request's stack;
// only a queued one is moved to the heap (see queueCompile).
type pendingCompile struct {
	entry      int
	seq        int64 // enqueue order, the (readyAt, seq) tie break
	enqueuedAt int64 // simulated cycle of the enqueue
	readyAt    int64 // earliest simulated cycle the result may install
	deadline   int64 // watchdog kill point: enqueue cycle + cost × watchdogFactor
	// queued marks a compile with a latency: it enters the queue and
	// installs at readyAt. Any other compile installs at its request.
	queued    bool
	recompile bool // old code still installed (promotion-style recompile)
	// hung marks a chaos-injected compile hang: no job is submitted, and
	// the pending entry is killed by the watchdog at deadline.
	hung bool
	// out is written by a queued job's worker then published by closing
	// done; on a store hit or a job run at the request it is set at the
	// request and done stays nil.
	out  *compileOutput
	done chan struct{}
	// flight is the output store's flight this request joined instead of
	// compiling (another request's build of the same key); the install
	// point takes the result from it. A leader's own output comes through
	// done like any fresh job.
	flight *codecache.Flight[*compileOutput]
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

// compileQueue holds the System's compiles that have a latency. A
// compile that installs at its request never enters the queue and never
// submits a job.
type compileQueue struct {
	// jobs counts this System's jobs still running on the compile pool;
	// every exit of Run waits for them, so no job outlives its run.
	jobs sync.WaitGroup
	// queue holds the live pending compiles in install order (readyAt,
	// then enqueue seq); each is also its region record's pending
	// (single-flight per region).
	queue []*pendingCompile
	seq   int64
}

// newCompileInput returns entry's compile input, forming the region's
// superblock into its record when it has none.
func (s *System) newCompileInput(entry int) (compileInput, error) {
	rr := s.recordOf(entry)
	if rr.sb == nil {
		sb, err := region.Form(s.prog, s.it.Prof, entry, s.cfg.Region)
		if err != nil {
			return compileInput{}, err
		}
		rr.sb, rr.formed = sb, true
	}
	// The effective tier folds the health controller's no-speculation
	// clamp; it flows into both the opt and sched configs, and through
	// them into the key, so clamped and unclamped compiles of the same
	// region never share code.
	et := s.effectiveTier(entry)
	return compileInput{
		entry:     entry,
		sb:        rr.sb,
		blacklist: rr.blacklist,
		pins:      rr.pins,
		key: compileKey{
			trace:          rr.sb.Key(),
			opt:            s.optConfig(et),
			Mode:           s.cfg.Mode,
			NumAliasRegs:   s.cfg.NumAliasRegs,
			StoreReorder:   s.cfg.StoreReorder && et < TierNoStoreReorder,
			ForceNonSpec:   et >= TierConservative,
			PressureMargin: 4,
			Machine:        s.cfg.Machine,
			Alloc: core.Options{
				DisableAnti:     s.cfg.Ablation.Anti,
				DisableRotation: s.cfg.Ablation.Rotation,
			},
			sets: rr.sets,
		},
	}, nil
}

// arenaPool recycles translate arenas across compiles. Each pipeline run
// (on the simulation thread or a worker goroutine) takes one arena for its
// duration; vliw.Compile decodes the schedule out of the arena into the
// installed code before it returns to the pool, so nothing that outlives
// the compile aliases pooled memory.
var arenaPool = sync.Pool{New: func() interface{} { return ir.NewArena() }}

// compilePipeline is the active compile path. Tests swap in
// runCompilePipelineRef to differentially check the flat-arena pipeline
// against the retained reference implementation.
var compilePipeline = func(out *compileOutput) *compileOutput { return runCompilePipeline(out, nil) }

// Compilation is a read-only view of one pipeline run after the bake (see
// InspectRegion). Only Superblock and Code outlive the callback.
type Compilation struct {
	Superblock      *region.Superblock
	Region          *ir.Region
	Opt             *opt.Result // nil on the retry ladder's re-translate rung
	Deps            *deps.Set
	Schedule        *sched.Schedule
	Code            *vliw.CompiledRegion
	OverflowRetries int
}

// runCompilePipeline is the pure compile path: translate, optimize,
// compute dependences, schedule with alias register allocation (with the
// overflow retry ladder), and bake the VLIW code; a non-nil fn then sees
// the compilation. It compiles out.in, writes the result into out and
// returns out; a request allocates the output with its input once. It
// touches nothing but out, so it is safe on a worker goroutine.
//
// Every intermediate structure is recycled: the IR comes from a pooled
// arena, and the alias table, dependence set and optimizer result are
// handed back to their pools on exit. Only the decoded CompiledRegion and
// plain-value stats escape (the installed code and the output store retain
// compile outputs).
func runCompilePipeline(out *compileOutput, fn func(*Compilation)) *compileOutput {
	in := &out.in
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
	optRes := opt.Run(reg, tbl, in.key.opt)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	// The deferred closures release whatever tbl/ds refer to at return —
	// the retry ladder below releases and rebinds them mid-flight.
	defer func() {
		tbl.Release()
		ds.Release()
		optRes.Release()
	}()

	scfg := in.schedConfig()
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
			optRes.Release()
			optRes = nil
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
	// Compile decodes the schedule into storage of its own, so the arena
	// can be recycled while the compiled region lives on.
	out.cr = in.key.Machine.Compile(sc.Seq, reg, len(in.sb.Insts))
	out.alloc = sc.Alloc.Stats
	out.working = core.MeasureWorkingSets(sc.Alloc, in.sb.NumMemOps())
	if fn != nil {
		fn(&Compilation{Superblock: in.sb, Region: reg, Opt: optRes, Deps: ds,
			Schedule: sc, Code: out.cr, OverflowRetries: out.overflowRetries})
	}
	sc.Release()
	return out
}

// runCompilePipelineRef is the retained reference compile path: private
// never-recycled IR allocations and the heap-based reference scheduler,
// with no pooling hand-backs. TestCompileFlatMatchesReference drives it
// against runCompilePipeline and requires identical outputs.
func runCompilePipelineRef(out *compileOutput) *compileOutput {
	in := &out.in
	reg, err := xlate.TranslateArena(in.sb, ir.NewArena())
	if err != nil {
		out.err = err
		return out
	}
	tbl := alias.BuildTable(reg, in.blacklist)
	optRes := opt.Run(reg, tbl, in.key.opt)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)

	scfg := in.schedConfig()
	sc, err := sched.RunRef(reg, tbl, ds, scfg)
	if err != nil {
		out.overflowRetries++
		resetAnnotations(reg)
		scfg.ForceNonSpec = true
		sc, err = sched.RunRef(reg, tbl, ds, scfg)
		if err != nil {
			reg, err = xlate.TranslateArena(in.sb, ir.NewArena())
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
	out.cr = in.key.Machine.Compile(sc.Seq, reg, len(in.sb.Insts))
	out.alloc = sc.Alloc.Stats
	out.working = core.MeasureWorkingSets(sc.Alloc, in.sb.NumMemOps())
	return out
}

// runCompileJob is the fault-domain wrapper every fresh compile runs
// inside (compileJob.run, on a worker or the simulation thread): it
// compiles out.in into out, recovering a panicking pipeline into a failed
// output — so a host bug in one compile can never take down the process
// or wedge the install point — and stamps the content checksum the
// install-time validation recomputes. The chaos knobs are plumbed in as
// plain values drawn on the simulation thread (drawHostFaults); the job
// itself makes no decisions.
func runCompileJob(out *compileOutput, panicInject bool, poison faultinject.PoisonMode) {
	defer func() {
		if r := recover(); r != nil {
			*out = compileOutput{
				in:       out.in,
				panicked: true,
				err:      fmt.Errorf("%w: B%d: %v", errCompilePanic, out.in.entry, r),
			}
		}
	}()
	if panicInject {
		panic("faultinject: injected compile-worker panic")
	}
	compilePipeline(out)
	if out.err != nil {
		return
	}
	if poison == faultinject.PoisonStructure {
		// Corrupt before the checksum stamp: the hash is consistent with
		// the broken contents, so only the structural invariant check can
		// reject it.
		out.cr.Corrupt(true)
	}
	out.checksum = out.cr.Checksum()
	if poison == faultinject.PoisonChecksum {
		// Corrupt after the stamp, in a field the structural check does
		// not constrain: only the checksum comparison can reject it.
		out.cr.Corrupt(false)
	}
}

// screenOutput is the one admission screen for a fresh compile result.
// It has no side effects: it returns nil when the output is fit to install
// and to share through the output store, and otherwise the reason. A
// recovered worker panic or a pipeline failure returns the output's own
// error (errCompilePanic for a panic). A poisoned result returns an
// errPoisonedResult: its content checksum no longer matches the worker's
// stamp, or, for corruption that predates the stamp, its structural
// invariants fail. admitOutput applies the verdict's side effects; a store
// leader's job inserts only what passes (compileJob.run).
func screenOutput(entry int, out *compileOutput) error {
	if out.err != nil {
		return out.err
	}
	if got := out.cr.Checksum(); got != out.checksum {
		return fmt.Errorf("%w: B%d content checksum %#x, stamped %#x", errPoisonedResult, entry, got, out.checksum)
	}
	if verr := out.cr.Validate(); verr != nil {
		return fmt.Errorf("%w: B%d structural invariants: %v", errPoisonedResult, entry, verr)
	}
	return nil
}

// outputStoreBytes is the output store's budget in storedOutputBytes. A
// full smarq-bench -parallel 1 puts 1087 outputs charged 8.98 MB, so its
// last puts evict.
const outputStoreBytes = 8 << 20

// outputStore is the process's one table of compiled code: the admitted
// compile outputs, by compile key. A compile request with no drawn host
// fault looks its key up there (enqueueCompile): a hit re-installs the
// stored output instead of running the pipeline, a miss leads the key's
// flight and runs the job that settles it, and a request that finds the
// flight open joins it and waits at its install point. So a key compiles
// once at a time process-wide, whichever Systems, fleets or programs ask
// for it. The pipeline is a pure function of the key, so which request
// built a stored output, and whether the store still holds it, changes
// host work only: no simulated number, event or golden depends on it. It
// is LRU under a constant byte budget. Tests swap it between runs for an
// empty one.
var outputStore = newOutputStore(outputStoreBytes)

// newOutputStore returns an empty output store of maxBytes.
func newOutputStore(maxBytes int64) *codecache.Cache[compileKey, *compileOutput] {
	return codecache.NewKeyed[compileKey](codecache.Options{MaxBytes: maxBytes}, storedOutputBytes)
}

// storedOutputBytes charges a stored output for what the store keeps
// alive: the output itself, its decoded code, its key's trace and set
// encodings, and its superblock's blocks and instructions; the pin and
// blacklist maps are charged by their encoding. A superblock that several
// outputs share is charged to each, so the charge runs above the bytes
// the store keeps alive (DESIGN.md, "One output store", measures both).
func storedOutputBytes(out *compileOutput) int64 {
	sb := out.in.sb
	return int64(unsafe.Sizeof(*out)) + out.cr.Bytes() +
		int64(len(out.in.key.trace)+len(out.in.key.sets)) +
		int64(len(sb.Blocks))*int64(unsafe.Sizeof(0)) +
		int64(len(sb.Insts))*int64(unsafe.Sizeof(region.Inst{}))
}

// hostFaults is a compile request's host-fault draws, resolved to the one
// fault that applies if the request runs a fresh job: a drawn hang
// dominates (the job never finishes, so a panic or poison inside it would
// be unobservable), and a drawn panic dominates poison (a panicking job
// produces no result to poison). cause is CauseWatchdog, CauseWorkerPanic,
// CausePoison, or CauseNone when no draw fired; ord is its draw's ordinal.
type hostFaults struct {
	cause  telemetry.Cause
	poison faultinject.PoisonMode
	ord    uint32
}

// drawHostFaults makes a compile request's host-fault draws on the
// simulation thread. Every request draws, so a region's host ordinals
// count its requests, and a drawn fault always applies: the request runs a
// private job (enqueueCompile), whatever the fleet cache or the output
// store hold. Only a queued request draws a hang: no other has a deadline
// to overrun.
func (s *System) drawHostFaults(entry int, rr *regionRecord, queued bool) hostFaults {
	if s.inj == nil {
		return hostFaults{}
	}
	d := rr.chaosDraws()
	panicOrd, panicked := s.inj.Draw(faultinject.WorkerPanic, entry, d)
	var hangOrd uint32
	hung := false
	if queued {
		hangOrd, hung = s.inj.Draw(faultinject.CompileHang, entry, d)
	}
	poisonOrd, poison := s.inj.Poison(entry, d)
	switch {
	case hung:
		return hostFaults{cause: telemetry.CauseWatchdog, ord: hangOrd}
	case panicked:
		return hostFaults{cause: telemetry.CauseWorkerPanic, ord: panicOrd}
	case poison != faultinject.PoisonNone:
		return hostFaults{cause: telemetry.CausePoison, poison: poison, ord: poisonOrd}
	}
	return hostFaults{}
}

// countLookup looks key up in the fleet cache, which counts it. A leader
// completes its entry at once, so the lookup never decides which job runs
// and leaves nothing in the System: fleet membership is invisible to a
// tenant. Without a fleet cache it does nothing.
func (s *System) countLookup(key compileKey) {
	if s.cache == nil {
		return
	}
	if _, _, flight, leader := s.cache.Lookup(key); leader {
		s.cache.Complete(key, flight, struct{}{}, true)
	}
}

// admitOutput decides whether a fresh compile result may be installed
// (screenOutput) and applies the verdict's side effects: a worker panic
// is a host fault and quarantines the region — the pipeline provably
// cannot handle this input — and a poisoned result is a rejected host
// fault. A rejected result is never stored and never dispatched. A store
// hit was screened before, so re-admitting it is a pure double-check, and
// a joined flight's output gets the verdict its leader got.
func (s *System) admitOutput(entry int, out *compileOutput) error {
	err := screenOutput(entry, out)
	switch {
	case err == nil:
	case out.panicked:
		s.Stats.Compile.WorkerPanics++
		s.recordHostFault(entry, telemetry.CauseWorkerPanic)
		s.quarantineRegion(entry, telemetry.CauseWorkerPanic)
	case errors.Is(err, errPoisonedResult):
		s.Stats.Compile.Rejected++
		s.recordHostFault(entry, telemetry.CausePoison)
	}
	return err
}

// requestCompile starts a compilation for entry. An error is returned
// only for failures observable at request time (injected compile
// failures and region formation); pipeline failures surface at the
// install point, which applies their consequences itself. Suppressed
// requests (a quarantined region, or compilation shed by the health
// controller) return nil silently: not compiling is the intended outcome,
// not a failure to back off from.
func (s *System) requestCompile(entry int) error {
	if !s.compileAllowed(entry) {
		return nil
	}
	return s.enqueueCompile(entry)
}

// installsAtRequest reports whether compiles install at their request
// (the paper's model) rather than after a latency: all Workers decides.
func (s *System) installsAtRequest() bool { return s.cfg.Compile.Workers == 0 }

// recompileRegion re-(or newly-)compiles entry after its compile inputs
// changed (a tier move, a hardened pair, a pinned load), cancelling any
// now-stale pending compile first. stale marks installed code that just
// trapped under the old inputs. When its replacement does not install at
// once, the code is dropped now and the region interprets meanwhile;
// otherwise the replacement installs over it (a recompile, not a fresh
// compile). A request-time failure drops the installed code. When
// compilation is suppressed, both the pending compile and any installed
// code are built against the old inputs — throw both away; the region
// re-forms once compiles are allowed again.
func (s *System) recompileRegion(entry int, stale bool) {
	if stale && !s.installsAtRequest() {
		s.dropCode(entry)
	}
	if !s.compileAllowed(entry) {
		s.cancelPending(entry, telemetry.CauseHealth)
		if s.disp[entry].code != nil {
			s.dropCode(entry)
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), entry, s.tierOf(entry), telemetry.CauseHealth)
		}
		return
	}
	s.cancelPending(entry, telemetry.CauseStale)
	if err := s.enqueueCompile(entry); err != nil {
		s.dropCode(entry)
		s.Stats.RegionsDropped++
		s.tel.drop(s.now(), entry, s.tierOf(entry), telemetry.CauseCompileFail)
	}
}

// enqueueCompile is the one compile sequence, each step at one place: the
// CompileFail draw, the input, the host-fault draws, the fleet-cache
// count, then the job. A drawn host fault gets a private job (or, for a
// hang, none) that no other request can join, so a fault never reaches
// the output store or another request. Any other request takes its code
// from the store (reuseOutput). A compile with a latency is then queued;
// any other installs before the request returns. A live pending compile
// absorbs the request.
func (s *System) enqueueCompile(entry int) error {
	rr := s.recordOf(entry)
	if rr.pending != nil {
		return nil
	}
	// Every chaos draw happens at the request on the simulation thread, so
	// no draw depends on the worker count or on host timing.
	if s.inj != nil {
		if ord, fired := s.inj.Draw(faultinject.CompileFail, entry, rr.chaosDraws()); fired {
			s.tel.chaosInjected(s.now(), entry, rr.Level, telemetry.CauseCompileFail, ord)
			return errInjectedCompileFail
		}
	}
	in, err := s.newCompileInput(entry)
	if err != nil {
		return err
	}
	now := s.now()
	p := pendingCompile{
		entry:      entry,
		enqueuedAt: now,
		readyAt:    now,
		recompile:  s.disp[entry].code != nil,
	}
	if !s.installsAtRequest() {
		// The latency is fixed here from the superblock alone, so the
		// install point never depends on the result or the host.
		cost := int64(s.cfg.Machine.CompileCyclesPerInst)*int64(len(in.sb.Insts)) +
			int64(s.cfg.Machine.CompileCyclesPerCheck)*int64(in.sb.NumMemOps())
		p.queued, p.readyAt, p.deadline = true, now+cost, now+cost*watchdogFactor
	}
	hf := s.drawHostFaults(entry, rr, p.queued)
	s.countLookup(in.key)
	s.Stats.Compile.Enqueued++
	var job compileJob
	if hf.cause == telemetry.CauseNone {
		job = reuseOutput(&p, in)
	} else {
		s.tel.chaosInjected(now, entry, rr.Level, hf.cause, hf.ord)
		// A hung compile runs no job: the watchdog kills it at its deadline.
		p.hung = hf.cause == telemetry.CauseWatchdog
		if !p.hung {
			job.out, job.panicInject, job.poison = &compileOutput{in: in}, hf.cause == telemetry.CauseWorkerPanic, hf.poison
		}
	}
	if p.queued {
		s.queueCompile(p, job)
		return nil
	}
	if job.out != nil {
		p.out = job.run()
	}
	s.installPending(&p)
	return nil
}

// reuseOutput is the one reuse rule: re-install, don't recompile. It looks
// in's key up in the output store. On a hit it gives p the stored output
// and returns no job; the request runs no pipeline. Injected alias
// exceptions, drops, evictions and tier moves often bring back inputs a
// region compiled before, and another System may have built the same
// input. If another request is building the key, p joins its flight and
// takes the output at its install point. Otherwise p leads the flight, and
// the returned job builds the output and settles the flight. Whichever
// way, the output goes through admitOutput and is charged like a fresh
// compile of the same input.
func reuseOutput(p *pendingCompile, in compileInput) compileJob {
	out, hit, flight, leader := outputStore.Lookup(in.key)
	switch {
	case hit:
		p.out = out
	case leader:
		return compileJob{out: &compileOutput{in: in}, flight: flight}
	default:
		p.flight = flight
	}
	return compileJob{}
}

// compileJob is a request's compile: the output a fresh job fills (it
// holds the input; nil when the request runs no job), the host faults
// drawn for it, and the output store's flight it settles when it leads
// one. A job with a host fault leads no flight.
type compileJob struct {
	out         *compileOutput
	panicInject bool
	poison      faultinject.PoisonMode
	flight      *codecache.Flight[*compileOutput]
}

// run runs the pipeline in its fault domain (runCompileJob) and settles
// the job's store flight, if it leads one, with the output. That is the
// store's one insert point: the output enters the store only if it passes
// screenOutput (else the next lookup elects a fresh leader).
func (j compileJob) run() *compileOutput {
	runCompileJob(j.out, j.panicInject, j.poison)
	if j.flight != nil {
		outputStore.Complete(j.out.in.key, j.flight, j.out, screenOutput(j.out.in.entry, j.out) == nil)
	}
	return j.out
}

// queueCompile queues p, a compile with a latency, in install order and
// submits its fresh job, if any, to the compile pool: the output travels
// to this System's install point through p.out and done, and a leader's
// job also settles its store flight for the followers. p arrives by value:
// only a queued compile outlives its request, so only it is moved to the
// heap.
func (s *System) queueCompile(p pendingCompile, job compileJob) {
	cq, entry, now := &s.cq, p.entry, p.enqueuedAt
	cq.seq++
	p.seq = cq.seq
	if job.out != nil {
		p.done = make(chan struct{})
		jp := &p
		cq.jobs.Add(1)
		compilequeue.Submit(func() {
			defer cq.jobs.Done()
			jp.out = job.run()
			close(jp.done)
		})
	}
	s.disp[entry].rec.pending = &p
	q := append(cq.queue, &p)
	for i := len(q) - 1; i > 0; i-- {
		prev := q[i-1]
		if prev.at() < q[i].at() || (prev.at() == q[i].at() && prev.seq < q[i].seq) {
			break
		}
		q[i-1], q[i] = q[i], q[i-1]
	}
	cq.queue = q
	depth := len(q)
	if depth > s.Stats.Compile.MaxQueueDepth {
		s.Stats.Compile.MaxQueueDepth = depth
	}
	s.tel.compileQueued(now, entry, s.tierOf(entry), p.readyAt-now, depth)
}

// cancelPending discards entry's pending compile, if any. The worker (if
// still running) finishes into an unread result; Run waits for it before
// it returns.
func (s *System) cancelPending(entry int, cause telemetry.Cause) {
	rr := s.disp[entry].rec
	if rr == nil || rr.pending == nil {
		return
	}
	cq, p := &s.cq, rr.pending
	rr.pending = nil
	for i, q := range cq.queue {
		if q == p {
			cq.queue = append(cq.queue[:i], cq.queue[i+1:]...)
			break
		}
	}
	s.Stats.Compile.Canceled++
	s.tel.compileCancel(s.now(), entry, s.tierOf(entry), cause, len(cq.queue))
}

// drainCompiles installs every pending compilation whose event time the
// simulated clock has passed, in deterministic (event time, enqueue-seq)
// order.
func (s *System) drainCompiles() {
	cq := &s.cq
	now := s.now()
	for len(cq.queue) > 0 && cq.queue[0].at() <= now {
		p := cq.queue[0]
		copy(cq.queue, cq.queue[1:])
		cq.queue = cq.queue[:len(cq.queue)-1]
		s.disp[p.entry].rec.pending = nil
		s.tel.compileDequeued(len(cq.queue))
		s.installPending(p)
	}
}

// installPending applies one compilation at its install point: a queued
// one once the simulated clock reaches it, any other at its request. Only
// here does the simulation thread block on host work (a worker or a
// flight), and only once the install point has arrived; a hung job has
// neither, and the watchdog kills it at its deadline unread.
func (s *System) installPending(p *pendingCompile) {
	if p.done != nil {
		<-p.done
	}
	if p.flight != nil {
		<-p.flight.Done()
		p.out = p.flight.Value()
	}
	if p.hung {
		// Watchdog kill at the deadline. The job was never submitted (an
		// injected hang) or its result is simply never read, so the kill
		// point is a pure function of the simulated clock — no blocking,
		// no host-timing dependence. The wasted occupancy up to the
		// deadline is charged as compile work.
		s.Stats.Compile.Failed++
		s.Stats.Compile.WatchdogKills++
		s.Stats.Compile.WorkCycles += p.deadline - p.enqueuedAt
		s.tel.compileInstalled(p.deadline - p.enqueuedAt)
		s.recordHostFault(p.entry, telemetry.CauseWatchdog)
		if p.recompile {
			s.dropCode(p.entry)
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), p.entry, s.tierOf(p.entry), telemetry.CauseCompileFail)
		} else {
			s.compileFailBackoff(p.entry, errWatchdogTimeout)
		}
		return
	}
	latency := s.now() - p.enqueuedAt
	s.Stats.Compile.WorkCycles += p.readyAt - p.enqueuedAt
	s.Stats.Compile.LatencySum += latency
	s.tel.compileInstalled(latency)
	out := p.out
	if err := s.admitOutput(p.entry, out); err != nil {
		s.Stats.Compile.Failed++
		if p.recompile {
			// The superseding compile failed: the installed code is built
			// against stale inputs, so drop it.
			s.dropCode(p.entry)
			s.Stats.RegionsDropped++
			s.tel.drop(s.now(), p.entry, s.tierOf(p.entry), telemetry.CauseCompileFail)
		} else if !out.panicked {
			// A panicked region is quarantined — it will never compile
			// again, so no cooldown applies.
			s.compileFailBackoff(p.entry, err)
		}
		return
	}
	s.installOutput(p, latency)
	s.Stats.Compile.Installed++
}

// installOutput installs p's admitted output: cycle accounting, code
// cache insert (with capacity eviction), per-region statistics (staged in
// the borrowed scratch until returnExec publishes them) and the compile
// telemetry event. A recompile
// overwrites the installed compiled record in place; nothing else holds
// it.
func (s *System) installOutput(p *pendingCompile, latency int64) {
	entry, out := p.entry, p.out
	s.Stats.OverflowRetries += out.overflowRetries
	if !p.queued {
		// A compile that installs at its request ran on the critical path
		// (the paper's Figure 18 cost); a queued compile's occupancy is
		// charged to CompileStats.WorkCycles at its install point instead.
		s.Stats.OptCycles += out.numOps * int64(s.cfg.Machine.OptCyclesPerOp)
		s.Stats.SchedCycles += out.numOps * int64(s.cfg.Machine.SchedCyclesPerOp)
	}
	rr := s.disp[entry].rec
	rr.injFailStreak = 0
	c := s.disp[entry].code
	if c != nil {
		s.Stats.Recompiles++
	} else {
		s.evictForCapacity(entry)
		s.Stats.RegionsCompiled++
		c = new(compiled)
		s.setCode(entry, c)
	}
	*c = compiled{out: out, lastUse: s.entrySeq, installedAt: s.now(), fresh: true}

	rs := RegionStats{
		Entry:          entry,
		GuestInsts:     len(out.in.sb.Insts),
		MemOps:         out.in.sb.NumMemOps(),
		Alloc:          out.alloc,
		Working:        out.working,
		SeqLen:         out.cr.Ops(),
		Cycles:         out.cr.Cycles,
		CompileLatency: latency,
		Tier:           rr.Level,
	}
	if rr.statsIdx >= 0 {
		s.x.regions[rr.statsIdx] = rs
	} else {
		rr.statsIdx = len(s.x.regions)
		s.x.regions = append(s.x.regions, rs)
	}
	s.tel.regionCompile(s.now(), entry, rr.Level, &rs)
}

// ErrNoCode is InspectRegion's error for a region without installed code.
var ErrNoCode = errors.New("dynopt: region has no installed code")

// InspectRegion rebuilds entry's installed code from the input of the
// output it was installed from and passes fn (which may be nil) the
// compilation. It fails unless the rebuild's checksum equals the installed
// code's, and changes no Stats, event, record or stored output. Call it
// between runs, never during Run.
func (s *System) InspectRegion(entry int, fn func(*Compilation)) error {
	if entry < 0 || entry >= len(s.disp) || s.disp[entry].code == nil {
		return fmt.Errorf("%w: B%d", ErrNoCode, entry)
	}
	installed := s.disp[entry].code.out
	out := runCompilePipeline(&compileOutput{in: installed.in}, fn)
	if out.err == nil && out.cr.Checksum() != installed.cr.Checksum() {
		out.err = fmt.Errorf("dynopt: B%d does not rebuild to its installed code", entry)
	}
	return out.err
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
		rr := s.recordOf(entry)
		rr.injFailStreak = min(rr.injFailStreak+1, injFailStreakCap)
		s.disp[entry].cooldown = count + rr.injFailStreak*s.cfg.HotThreshold
		return
	}
	s.disp[entry].cooldown = count * 2
}

// abandonCompiles cancels every still-pending compilation at the end of
// the run. Their jobs finish into unread results; Run waits for them.
func (s *System) abandonCompiles() {
	cq := &s.cq
	for len(cq.queue) > 0 {
		s.cancelPending(cq.queue[0].entry, telemetry.CauseRunEnd)
	}
}
