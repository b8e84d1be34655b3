package dynopt

import (
	"reflect"
	"sync/atomic"
	"testing"

	"smarq/internal/alias"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/workload"
)

// useStore gives the rest of the test a fresh, empty output store of
// maxBytes, and restores the process's store when the test ends. Swap it
// only while no System of the test is running.
func useStore(t testing.TB, maxBytes int64) {
	t.Helper()
	saved := outputStore
	outputStore = newOutputStore(maxBytes)
	t.Cleanup(func() { outputStore = saved })
}

// swapPipeline is the one test seam for the compile pipeline: until the
// test ends, p runs every fresh compile, over a fresh, empty output store.
// So a test counts what its own Systems compile, whatever ran before it in
// the process. Call it before the test's Systems run: System.Run waits
// for its compile jobs, so no goroutine reads either variable while they
// change.
func swapPipeline(t testing.TB, p func(*compileOutput) *compileOutput) {
	t.Helper()
	useStore(t, outputStoreBytes)
	saved := compilePipeline
	compilePipeline = p
	t.Cleanup(func() { compilePipeline = saved })
}

// countPipelineRuns swaps in a pipeline that counts its runs
// (swapPipeline). The count is atomic because a queued system runs the
// pipeline on its workers; read it once their jobs are drained.
func countPipelineRuns(t testing.TB) *atomic.Int64 {
	t.Helper()
	n := new(atomic.Int64)
	swapPipeline(t, func(out *compileOutput) *compileOutput {
		n.Add(1)
		return runCompilePipeline(out, nil)
	})
	return n
}

// installedSystem runs the aliasing program to halt with the given
// compile worker count and returns the system with the entry of one
// region whose code is still installed. A queued system's later compiles
// submit jobs, which the test's cleanup waits for.
func installedSystem(t *testing.T, workers int) (*System, int) {
	t.Helper()
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = workers
	sys := New(aliasingProgram(800, 7), &guest.State{}, guest.NewMemory(1<<16), cfg)
	if halted, err := sys.Run(50_000_000); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	t.Cleanup(sys.cq.jobs.Wait)
	lendExec(t, sys)
	for e := range sys.disp {
		if sys.disp[e].code != nil {
			return sys, e
		}
	}
	t.Fatal("run left no region installed")
	return nil, 0
}

// tieredSystem runs ammp to halt with compiles that install at their
// request and returns the system with the entry of an installed region
// whose full, no-store-reorder and conservative tiers compile to three
// different codes, so that a test of its tier builds tells code apart, not
// only keys. (A small loop's region schedules alike at every tier.)
func tieredSystem(t *testing.T) (*System, int) {
	t.Helper()
	bm := mustBenchmark(t, "ammp")
	sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), ConfigSMARQ(64))
	if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	lendExec(t, sys)
	for e, de := range sys.disp {
		if de.code == nil {
			continue
		}
		level, codes := de.rec.Level, map[uint64]bool{}
		for _, tier := range []Tier{TierFull, TierNoStoreReorder, TierConservative} {
			de.rec.Level = tier
			in, err := sys.newCompileInput(e)
			if err != nil {
				t.Fatal(err)
			}
			codes[runCompilePipeline(&compileOutput{in: in}, nil).cr.Checksum()] = true
		}
		de.rec.Level = level
		if len(codes) == 3 {
			return sys, e
		}
	}
	t.Fatal("no installed ammp region compiles to three codes at the full, no-store-reorder and conservative tiers")
	return nil, 0
}

// storedOutput returns the output store's output for entry's current
// compile input, or nil. It leaves the store's recency as it was.
func (s *System) storedOutput(entry int) *compileOutput {
	in, err := s.newCompileInput(entry)
	if err != nil {
		return nil
	}
	out, _ := outputStore.Peek(in.key)
	return out
}

// settle advances the simulated clock to entry's pending compile's event
// time — its install point, or a hung job's watchdog deadline — and runs
// the queue there, as the Run loop would.
func settle(t *testing.T, sys *System, entry int) {
	t.Helper()
	p := sys.disp[entry].rec.pending
	if p == nil {
		t.Fatalf("B%d has no pending compile", entry)
	}
	sys.Stats.InterpCycles += p.at() - sys.now()
	sys.drainCompiles()
}

// TestInlineRecompileReusesInstalledCode: an inline recompile whose
// input's key is in the output store re-installs that code without
// running the pipeline, charges it exactly like a fresh compile, and
// resets the overwritten compiled record's dispatch state.
func TestInlineRecompileReusesInstalledCode(t *testing.T) {
	runs := countPipelineRuns(t)
	sys, e := installedSystem(t, 0)
	runs.Store(0)
	old := sys.disp[e].code
	oldCR, rec := old.out.cr, sys.storedOutput(e)
	if rec == nil || rec != old.out {
		t.Fatal("the installed output is not the stored output for its input")
	}
	// Dispatch state the re-install must not carry over.
	old.failStreak, old.fresh = maxGuardFails-1, false
	before := sys.Stats

	sys.recompileRegion(e, true)

	if runs.Load() != 0 {
		t.Errorf("pipeline ran %d times for unchanged inputs, want 0", runs.Load())
	}
	c := sys.disp[e].code
	if c == nil || c.out.cr != oldCR {
		t.Fatal("the recompile did not re-install the installed CompiledRegion")
	}
	if c.failStreak != 0 || !c.fresh {
		t.Errorf("re-installed record kept failStreak=%d fresh=%v, want 0 and true", c.failStreak, c.fresh)
	}
	if got, want := sys.Stats.Recompiles, before.Recompiles+1; got != want {
		t.Errorf("Recompiles %d, want %d", got, want)
	}
	m := sys.cfg.Machine
	if got, want := sys.Stats.OptCycles, before.OptCycles+rec.numOps*int64(m.OptCyclesPerOp); got != want {
		t.Errorf("OptCycles %d, want %d (one more compile's charge)", got, want)
	}
	if got, want := sys.Stats.SchedCycles, before.SchedCycles+rec.numOps*int64(m.SchedCyclesPerOp); got != want {
		t.Errorf("SchedCycles %d, want %d (one more compile's charge)", got, want)
	}
	if got, want := sys.Stats.Compile.Installed, before.Compile.Installed+1; got != want {
		t.Errorf("Compile.Installed %d, want %d", got, want)
	}
}

// TestInlineRecompileFreshOnChangedInputs: any change to the inputs — a
// new blacklist pair, a new pin, a tier move, a superblock re-formed as a
// different trace — runs the pipeline again.
func TestInlineRecompileFreshOnChangedInputs(t *testing.T) {
	pinned := alias.MakePair(1000, 1001)
	for _, tc := range []struct {
		name   string
		setup  func(sys *System, e int) // before counting, if not nil
		change func(sys *System, e int)
	}{
		{"blacklist", nil, func(sys *System, e int) {
			rr := sys.disp[e].rec
			for a := 1000; ; a++ {
				if p := alias.MakePair(a, a+1); !rr.blacklist[p] {
					rr.harden(p, -1)
					return
				}
			}
		}},
		{"pin", func(sys *System, e int) {
			// Blacklist the pair first, so the pin is the only change.
			sys.disp[e].rec.harden(pinned, -1)
			sys.recompileRegion(e, true)
		}, func(sys *System, e int) {
			rr := sys.disp[e].rec
			for op := 0; ; op++ {
				if !rr.pins[op] {
					rr.harden(pinned, op)
					return
				}
			}
		}},
		{"tier", nil, func(sys *System, e int) {
			rr := sys.disp[e].rec
			rr.Level = (rr.Level + 1) % TierPinned
		}},
		{"reformed", nil, func(sys *System, e int) {
			// Re-form the region as a different trace of the same entry,
			// its loop unrolled one copy more. Re-forming the same trace
			// returns the same superblock (TestReformedTraceReinstalls).
			sys.cfg.Region.Unroll = max(sys.cfg.Region.Unroll, 1) + 1
			sys.disp[e].rec.sb = nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := countPipelineRuns(t)
			sys, e := installedSystem(t, 0)
			if tc.setup != nil {
				tc.setup(sys, e)
			}
			runs.Store(0)
			// Two rounds: the second changes sets that the first round's
			// install already holds.
			for round := 1; round <= 2; round++ {
				oldCR := sys.disp[e].code.out.cr
				tc.change(sys, e)
				sys.recompileRegion(e, true)
				if runs.Load() != int64(round) {
					t.Fatalf("round %d: %d pipeline runs, want %d", round, runs.Load(), round)
				}
				if c := sys.disp[e].code; c == nil || c.out.cr == oldCR {
					t.Fatalf("round %d: changed inputs did not install fresh code", round)
				}
			}
		})
	}
}

// TestReformedTraceReinstalls: re-forming a region's trace returns the
// program's one superblock for it, so the input's key is the stored
// output's and the recompile re-installs that code without a pipeline
// run.
func TestReformedTraceReinstalls(t *testing.T) {
	runs := countPipelineRuns(t)
	sys, e := installedSystem(t, 0)
	runs.Store(0)
	rr := sys.disp[e].rec
	oldSB, oldCR := rr.sb, sys.disp[e].code.out.cr
	rr.sb = nil
	sys.recompileRegion(e, true)
	if rr.sb != oldSB {
		t.Fatal("re-forming the same trace returned a new superblock")
	}
	if runs.Load() != 0 {
		t.Errorf("pipeline ran %d times for a re-formed identical trace, want 0", runs.Load())
	}
	if c := sys.disp[e].code; c == nil || c.out.cr != oldCR {
		t.Error("the recompile did not re-install the installed CompiledRegion")
	}
}

// TestHostFaultDrawForcesFreshJob: a worker-panic or poison draw always
// gets a fresh job, even when the input's key is stored, and the fault
// never reaches the stored code — inline and queued alike. A
// queued hang draw never reuses either: no job is submitted, and the
// watchdog kills the compile at its deadline.
func TestHostFaultDrawForcesFreshJob(t *testing.T) {
	for _, tc := range []struct {
		name     string
		workers  int
		chaos    faultinject.Config
		wantRuns int64 // a panic strikes before the pipeline starts
	}{
		{"poison", 0, faultinject.Config{Seed: 1, PoisonResultRate: 1}, 1},
		{"panic", 0, faultinject.Config{Seed: 1, WorkerPanicRate: 1}, 0},
		{"poison-queued", 1, faultinject.Config{Seed: 1, PoisonResultRate: 1}, 1},
		{"panic-queued", 1, faultinject.Config{Seed: 1, WorkerPanicRate: 1}, 0},
		{"hang-queued", 1, faultinject.Config{Seed: 1, CompileHangRate: 1}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := countPipelineRuns(t)
			sys, e := installedSystem(t, tc.workers)
			sys.inj = faultinject.New(tc.chaos)
			old := sys.disp[e].code.out.cr
			sum := old.Checksum()
			before := sys.Stats.Compile
			base := runs.Load()

			// Queued: a promotion-style recompile, so the old code stays
			// installed until the replacement's install point.
			sys.recompileRegion(e, !sys.installsAtRequest())
			if !sys.installsAtRequest() {
				p := sys.disp[e].rec.pending
				if p == nil {
					t.Fatal("the recompile queued nothing")
				}
				if p.done == nil && !p.hung {
					t.Fatal("the recompile reused the stored output despite a host-fault draw")
				}
				if p.hung != (tc.chaos.CompileHangRate > 0) || (p.done == nil) != p.hung {
					t.Fatalf("hung=%v job=%v: a hang submits no job, any other draw a fresh one",
						p.hung, p.done != nil)
				}
				settle(t, sys, e)
			}

			if got := runs.Load() - base; got != tc.wantRuns {
				t.Errorf("%d pipeline runs, want %d", got, tc.wantRuns)
			}
			if sys.Stats.Compile.Failed != before.Failed+1 {
				t.Errorf("Compile.Failed %d, want %d: the faulted job was not screened",
					sys.Stats.Compile.Failed, before.Failed+1)
			}
			if hung := tc.chaos.CompileHangRate > 0; hung && sys.Stats.Compile.WatchdogKills != before.WatchdogKills+1 {
				t.Errorf("Compile.WatchdogKills %d, want %d", sys.Stats.Compile.WatchdogKills, before.WatchdogKills+1)
			}
			if sys.disp[e].code != nil {
				t.Error("the installed code survived a failed superseding compile")
			}
			if got := old.Checksum(); got != sum {
				t.Errorf("the previously installed code changed: checksum %#x, was %#x", got, sum)
			}
			if err := old.Validate(); err != nil {
				t.Errorf("the previously installed code no longer validates: %v", err)
			}
			if rec := sys.storedOutput(e); rec == nil || rec.cr != old {
				t.Error("the rejected result replaced the stored output")
			}
		})
	}
}

// TestQueuedRecompileReusesRecord: a queued recompile whose input's key is
// in the output store submits no job and runs no pipeline. It installs
// the stored CompiledRegion at its readyAt point and is charged exactly
// like a fresh compile of the same input, which a twin system runs over an
// empty store.
func TestQueuedRecompileReusesRecord(t *testing.T) {
	runs := countPipelineRuns(t)
	reuse, e := installedSystem(t, 1)
	fresh, _ := installedSystem(t, 1)
	rec := reuse.storedOutput(e)
	if rec == nil || rec != reuse.disp[e].code.out {
		t.Fatal("the installed output is not the stored output for its input")
	}
	before := reuse.Stats.Compile
	base := runs.Load()

	// A promotion-style recompile: the old code stays installed until the
	// replacement installs.
	reuse.recompileRegion(e, false)
	useStore(t, outputStoreBytes)
	fresh.recompileRegion(e, false)
	p := reuse.disp[e].rec.pending
	if p == nil {
		t.Fatal("the recompile queued nothing")
	}
	if p.done != nil || p.flight != nil || p.hung {
		t.Fatal("the recompile submitted a job for unchanged inputs")
	}
	if p.out != rec {
		t.Fatal("the queued compile does not carry the stored output")
	}
	if fresh.disp[e].rec.pending.done == nil {
		t.Fatal("the twin over an empty store submitted no job")
	}
	settle(t, reuse, e)
	settle(t, fresh, e)

	if got := runs.Load() - base; got != 1 {
		t.Errorf("%d pipeline runs, want 1 (the twin's fresh job only)", got)
	}
	c := reuse.disp[e].code
	if c == nil || c.out.cr != rec.cr {
		t.Fatal("the recompile did not install the stored CompiledRegion")
	}
	if c.installedAt != p.readyAt {
		t.Errorf("installed at cycle %d, want readyAt %d", c.installedAt, p.readyAt)
	}
	cs := reuse.Stats.Compile
	if cost := p.readyAt - p.enqueuedAt; cost <= 0 || cs.WorkCycles != before.WorkCycles+cost || cs.LatencySum != before.LatencySum+cost {
		t.Errorf("WorkCycles %d, LatencySum %d; want %d and %d (one more compile's modelled cost %d)",
			cs.WorkCycles, cs.LatencySum, before.WorkCycles+cost, before.LatencySum+cost, cost)
	}
	if !reflect.DeepEqual(reuse.Stats, fresh.Stats) {
		t.Errorf("stats differ from a fresh compile of the same input\nreuse: %+v\nfresh: %+v", reuse.Stats, fresh.Stats)
	}
}

// TestReusePipelineRunsAmmpChaos pins how many of ammp's compiles under
// the default chaos mix run the pipeline, inline and queued: most requests
// follow an injected alias exception that changes no input, or return a
// region to a tier it built before, and re-install.
func TestReusePipelineRunsAmmpChaos(t *testing.T) {
	var bm workload.Benchmark
	for _, b := range workload.Suite() {
		if b.Name == "ammp" {
			bm = b
		}
	}
	for _, tc := range []struct {
		name                   string
		workers                int
		wantEnqueued, wantRuns int64
	}{
		{"inline", 0, 381, 13},
		{"queued", 1, 245, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := countPipelineRuns(t)
			cfg := ConfigSMARQ(64)
			cfg.Chaos = faultinject.Default(7)
			cfg.Compile.Workers = tc.workers
			sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
			if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
				t.Fatalf("halted=%v err=%v", halted, err)
			}
			if got := sys.Stats.Compile.Enqueued; got != tc.wantEnqueued {
				t.Errorf("Compile.Enqueued %d, want %d", got, tc.wantEnqueued)
			}
			if runs.Load() != tc.wantRuns {
				t.Errorf("%d pipeline runs for %d enqueued compiles, want %d", runs.Load(), sys.Stats.Compile.Enqueued, tc.wantRuns)
			}
		})
	}
}

// TestReuseDecisionZeroAllocs pins the reuse decision and the fleet
// cache's count — building the input with its key and finding it in the
// output store with a Lookup hit, then counting the key in a fleet cache
// that holds it — at zero heap allocations: the superblock and set
// encodings are built when they change, never per request. The sets are
// deliberately nonempty.
func TestReuseDecisionZeroAllocs(t *testing.T) {
	sys, e := installedSystem(t, 0)
	rr := sys.disp[e].rec
	rr.harden(alias.MakePair(3, 1), 9)
	rr.harden(alias.MakePair(2, 5), 2)
	sys.recompileRegion(e, true)
	if sys.disp[e].code == nil {
		t.Fatal("recompile installed no code")
	}
	rec := sys.disp[e].code.out
	sys.cache = NewCodeCache().cache
	sys.cache.Put(rec.in.key, struct{}{})
	allocs := testing.AllocsPerRun(200, func() {
		in, err := sys.newCompileInput(e)
		if out, hit, _, _ := outputStore.Lookup(in.key); err != nil || !hit || out != rec || in.key.sets == "" {
			t.Fatalf("unchanged inputs miss the stored output (err %v)", err)
		}
		sys.countLookup(in.key)
	})
	if allocs != 0 {
		t.Errorf("the reuse decision allocates %.1f times, want 0", allocs)
	}
	if st := sys.cache.Stats(); st.Lookups == 0 || st.Hits != st.Lookups {
		t.Errorf("the fleet cache missed the input's key: %d of %d lookups hit", st.Hits, st.Lookups)
	}
}

// TestInlineReinstallZeroAllocs pins a whole inline recompile with
// unchanged inputs at zero heap allocations: the decision, the install
// path and the compiled record, which is overwritten in place.
func TestInlineReinstallZeroAllocs(t *testing.T) {
	runs := countPipelineRuns(t)
	sys, e := installedSystem(t, 0)
	runs.Store(0)
	allocs := testing.AllocsPerRun(200, func() {
		sys.recompileRegion(e, true)
	})
	if runs.Load() != 0 {
		t.Fatalf("pipeline ran %d times for unchanged inputs, want 0", runs.Load())
	}
	if allocs != 0 {
		t.Errorf("an inline re-install allocates %.1f times, want 0", allocs)
	}
}

// TestPromotionReinstallsEarlierTier: a region that leaves a tier and
// comes back with the same inputs re-installs that tier's build — the
// rungs in between do not evict it — and is charged as for a compile. The
// region is installed over another store, so both tiers build here, and
// its two tiers compile to different code.
func TestPromotionReinstallsEarlierTier(t *testing.T) {
	sys, e := tieredSystem(t)
	rr := sys.disp[e].rec
	runs := countPipelineRuns(t)

	rr.Level = TierFull
	sys.recompileRegion(e, true)
	full := sys.disp[e].code.out.cr
	rr.Level = TierNoStoreReorder
	sys.recompileRegion(e, true)
	if runs.Load() != 2 {
		t.Fatalf("%d pipeline runs to build the full and no-store-reorder tiers, want 2", runs.Load())
	}
	if sys.disp[e].code.out.cr.Checksum() == full.Checksum() {
		t.Fatal("the no-store-reorder build is the full tier's code")
	}
	nsr := sys.storedOutput(e)
	rr.Level = TierFull
	fullOps := sys.storedOutput(e).numOps
	before := sys.Stats

	sys.recompileRegion(e, true)

	if runs.Load() != 2 {
		t.Errorf("returning to the full tier ran the pipeline %d more times, want 0", runs.Load()-2)
	}
	if c := sys.disp[e].code; c == nil || c.out.cr != full {
		t.Fatal("returning to the full tier did not re-install its original CompiledRegion")
	}
	m := sys.cfg.Machine
	if got, want := sys.Stats.OptCycles, before.OptCycles+fullOps*int64(m.OptCyclesPerOp); got != want {
		t.Errorf("OptCycles %d, want %d (one more compile's charge)", got, want)
	}
	if got, want := sys.Stats.SchedCycles, before.SchedCycles+fullOps*int64(m.SchedCyclesPerOp); got != want {
		t.Errorf("SchedCycles %d, want %d (one more compile's charge)", got, want)
	}
	if got, want := sys.Stats.Recompiles, before.Recompiles+1; got != want {
		t.Errorf("Recompiles %d, want %d", got, want)
	}
	if out, ok := outputStore.Peek(nsr.in.key); !ok || out != nsr {
		t.Error("re-installing the full tier disturbed the stored no-store-reorder build")
	}
}

// TestGuardFailDropReinstalls: the guard-fail drop clears the region's
// superblock and nothing else: the blacklist, the pins, the exception
// count, the ladder (tier and backoff included), the quarantine bit and
// the chaos draw ordinals survive, so the re-formed region resumes what it
// learned. Its build stays in the output store, so once compiles are
// allowed again the region re-forms as the same *Superblock and
// re-installs the same CompiledRegion without a pipeline run.
func TestGuardFailDropReinstalls(t *testing.T) {
	runs := countPipelineRuns(t)
	sys, e := installedSystem(t, 0)
	rr := sys.disp[e].rec
	rr.harden(alias.MakePair(3, 1), 9)
	rr.Level = TierNoElim
	sys.recompileRegion(e, true) // build and store the learned input
	oldSB, oldCR := rr.sb, sys.disp[e].code.out.cr
	rr.exceptions = 5
	rr.Backoff, rr.Demotions = 4, 2
	rr.quarantined = true
	rr.draws = &faultinject.Ordinals{faultinject.SpuriousAlias: 3, faultinject.GuardFail: 7}
	want := *rr
	want.sb = nil
	// The storm's one draw advances the guard ordinal, and the drop keeps
	// the ordinals, so the region's later draws continue its sequence.
	want.draws = &faultinject.Ordinals{faultinject.SpuriousAlias: 3, faultinject.GuardFail: 8}

	sys.inj = faultinject.New(faultinject.Config{Seed: 1, GuardFailRate: 1})
	c := sys.disp[e].code
	c.failStreak = maxGuardFails - 1
	sys.runRegion(e, c)
	if rr.sb != nil || sys.disp[e].code != nil {
		t.Fatal("the guard-fail storm did not drop the region and its superblock")
	}
	if !reflect.DeepEqual(*rr, want) {
		t.Errorf("the drop changed more than the superblock:\ngot  %+v\nwant %+v", *rr, want)
	}

	sys.inj = nil
	rr.quarantined = false
	runs.Store(0)
	sys.recompileRegion(e, true)
	if rr.sb != oldSB {
		t.Fatal("re-forming the dropped trace returned a new superblock")
	}
	if runs.Load() != 0 {
		t.Errorf("re-installing the dropped trace ran the pipeline %d times, want 0", runs.Load())
	}
	if c := sys.disp[e].code; c == nil || c.out.cr != oldCR {
		t.Error("the re-formed region did not re-install its CompiledRegion")
	}
}
