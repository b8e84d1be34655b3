package dynopt

import (
	"reflect"
	"sync/atomic"
	"testing"

	"smarq/internal/alias"
	"smarq/internal/codecache"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/workload"
)

// countPipelineRuns swaps the compile pipeline for a counting wrapper
// until the test ends. The count is atomic because a queued system runs
// the pipeline on its workers; read it once their jobs are drained.
func countPipelineRuns(t *testing.T) *atomic.Int64 {
	t.Helper()
	n := new(atomic.Int64)
	saved := compilePipeline
	compilePipeline = func(in *compileInput) *compileOutput {
		n.Add(1)
		return runCompilePipeline(in, nil)
	}
	t.Cleanup(func() { compilePipeline = saved })
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
	for e := range sys.disp {
		if sys.disp[e].code != nil {
			return sys, e
		}
	}
	t.Fatal("run left no region installed")
	return nil, 0
}

// installRecordOf returns entry's install record for its effective tier.
func (s *System) installRecordOf(entry int) installRecord {
	return s.recordOf(entry).installs[s.effectiveTier(entry)]
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
// inputs equal its tier's install record re-installs that code without
// running the pipeline, charges it exactly like a fresh compile, and
// resets the overwritten compiled record's dispatch state.
func TestInlineRecompileReusesInstalledCode(t *testing.T) {
	sys, e := installedSystem(t, 0)
	runs := countPipelineRuns(t)
	old := sys.disp[e].code
	oldCR, rec := old.cr, sys.installRecordOf(e)
	if rec.out == nil || rec.out.cr != oldCR {
		t.Fatal("the installed code is not its tier's install record")
	}
	// Dispatch state the re-install must not carry over.
	old.failStreak, old.fresh = maxGuardFails-1, false
	before := sys.Stats

	sys.recompileRegion(e, true)

	if runs.Load() != 0 {
		t.Errorf("pipeline ran %d times for unchanged inputs, want 0", runs.Load())
	}
	c := sys.disp[e].code
	if c == nil || c.cr != oldCR {
		t.Fatal("the recompile did not re-install the installed CompiledRegion")
	}
	if c.failStreak != 0 || !c.fresh {
		t.Errorf("re-installed record kept failStreak=%d fresh=%v, want 0 and true", c.failStreak, c.fresh)
	}
	if got, want := sys.Stats.Recompiles, before.Recompiles+1; got != want {
		t.Errorf("Recompiles %d, want %d", got, want)
	}
	m := sys.cfg.Machine
	if got, want := sys.Stats.OptCycles, before.OptCycles+rec.out.numOps*int64(m.OptCyclesPerOp); got != want {
		t.Errorf("OptCycles %d, want %d (one more compile's charge)", got, want)
	}
	if got, want := sys.Stats.SchedCycles, before.SchedCycles+rec.out.numOps*int64(m.SchedCyclesPerOp); got != want {
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
	for _, tc := range []struct {
		name   string
		change func(sys *System, e int)
	}{
		{"blacklist", func(sys *System, e int) {
			rr := sys.disp[e].rec
			if rr.blacklist == nil {
				rr.blacklist = make(alias.Blacklist)
			}
			bl := rr.blacklist
			// Mutate the live map in place: the installed snapshot must not
			// see the new pair.
			for a := 1000; ; a++ {
				if p := alias.MakePair(a, a+1); !bl[p] {
					bl[p] = true
					return
				}
			}
		}},
		{"pin", func(sys *System, e int) {
			rr := sys.disp[e].rec
			if rr.pins == nil {
				rr.pins = make(map[int]bool)
			}
			pins := rr.pins
			for op := 0; ; op++ {
				if !pins[op] {
					pins[op] = true
					return
				}
			}
		}},
		{"tier", func(sys *System, e int) {
			rr := sys.disp[e].rec
			rr.Level = (rr.Level + 1) % TierPinned
		}},
		{"reformed", func(sys *System, e int) {
			// Re-form the region as a different trace of the same entry,
			// its loop unrolled one copy more. Re-forming the same trace
			// returns the same superblock (TestReformedTraceReinstalls).
			sys.cfg.Region.Unroll = max(sys.cfg.Region.Unroll, 1) + 1
			sys.disp[e].rec.sb = nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, e := installedSystem(t, 0)
			runs := countPipelineRuns(t)
			// Two rounds: the second mutates live state that the first
			// round's install already snapshotted.
			for round := 1; round <= 2; round++ {
				oldCR := sys.disp[e].code.cr
				tc.change(sys, e)
				sys.recompileRegion(e, true)
				if runs.Load() != int64(round) {
					t.Fatalf("round %d: %d pipeline runs, want %d", round, runs.Load(), round)
				}
				if c := sys.disp[e].code; c == nil || c.cr == oldCR {
					t.Fatalf("round %d: changed inputs did not install fresh code", round)
				}
			}
		})
	}
}

// TestReformedTraceReinstalls: re-forming a region's trace returns the
// program's one superblock for it, which its install record already
// holds, so the recompile re-installs that code without a pipeline run.
func TestReformedTraceReinstalls(t *testing.T) {
	sys, e := installedSystem(t, 0)
	runs := countPipelineRuns(t)
	rr := sys.disp[e].rec
	oldSB, oldCR := rr.sb, sys.disp[e].code.cr
	rr.sb = nil
	sys.recompileRegion(e, true)
	if rr.sb != oldSB {
		t.Fatal("re-forming the same trace returned a new superblock")
	}
	if runs.Load() != 0 {
		t.Errorf("pipeline ran %d times for a re-formed identical trace, want 0", runs.Load())
	}
	if c := sys.disp[e].code; c == nil || c.cr != oldCR {
		t.Error("the recompile did not re-install the installed CompiledRegion")
	}
}

// TestHostFaultDrawForcesFreshJob: a worker-panic or poison draw always
// gets a fresh job, even when the inputs equal the install record's, and
// the fault never reaches the recorded code — inline and queued alike. A
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
			old := sys.disp[e].code.cr
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
				if p.in == sys.installRecordOf(e).in {
					t.Fatal("the recompile reused the install record despite a host-fault draw")
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
			if rec := sys.installRecordOf(e); rec.out == nil || rec.out.cr != old {
				t.Error("the rejected result replaced the install record")
			}
		})
	}
}

// TestQueuedRecompileReusesRecord: a queued recompile whose inputs equal
// its tier's install record submits no job and runs no pipeline. It
// installs the record's CompiledRegion at its readyAt point and is
// charged exactly like a fresh compile of the same input, which a twin
// system without the record runs.
func TestQueuedRecompileReusesRecord(t *testing.T) {
	runs := countPipelineRuns(t)
	reuse, e := installedSystem(t, 1)
	fresh, _ := installedSystem(t, 1)
	fresh.disp[e].rec.installs = [TierPinned]installRecord{}
	rec := reuse.installRecordOf(e)
	before := reuse.Stats.Compile
	base := runs.Load()

	// A promotion-style recompile: the old code stays installed until the
	// replacement installs.
	reuse.recompileRegion(e, false)
	fresh.recompileRegion(e, false)
	p := reuse.disp[e].rec.pending
	if p == nil {
		t.Fatal("the recompile queued nothing")
	}
	if p.done != nil || p.flight != nil || p.hung {
		t.Fatal("the recompile submitted a job for unchanged inputs")
	}
	if p.in != rec.in || p.out != rec.out {
		t.Fatal("the queued compile does not carry the install record")
	}
	if fresh.disp[e].rec.pending.done == nil {
		t.Fatal("the twin without a record submitted no job")
	}
	settle(t, reuse, e)
	settle(t, fresh, e)

	if got := runs.Load() - base; got != 1 {
		t.Errorf("%d pipeline runs, want 1 (the twin's fresh job only)", got)
	}
	c := reuse.disp[e].code
	if c == nil || c.cr != rec.out.cr {
		t.Fatal("the recompile did not install the record's CompiledRegion")
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

// TestFleetLeaderReuseCompletesFlight: a fleet-cache leader whose inputs
// equal its install record submits no job and settles its flight with the
// record's output, so the cache holds it again and the next lookup of the
// key — from any tenant — is a hit, not a wait on a flight that never
// ends.
func TestFleetLeaderReuseCompletesFlight(t *testing.T) {
	runs := countPipelineRuns(t)
	cc := NewCodeCache(codecache.Options{MaxEntries: 1})
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 1
	cfg.Compile.SharedCache = cc
	sys := New(aliasingProgram(800, 7), &guest.State{}, guest.NewMemory(1<<16), cfg)
	if halted, err := sys.Run(50_000_000); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	t.Cleanup(sys.cq.jobs.Wait)
	e := -1
	for i := range sys.disp {
		if sys.disp[i].code != nil {
			e = i
			break
		}
	}
	if e < 0 {
		t.Fatal("run left no region installed")
	}
	rec := sys.installRecordOf(e)
	key := memoKey(rec.in)
	// Make the key a miss: the one-entry cache now holds another key.
	cc.cache.Put(key+1, nil)
	before := sys.Stats.Compile
	base := runs.Load()

	sys.recompileRegion(e, false)

	p := sys.disp[e].rec.pending
	if p == nil {
		t.Fatal("the recompile queued nothing")
	}
	if got := sys.Stats.Compile; got.MemoMisses != before.MemoMisses+1 || got.DedupeWaits != before.DedupeWaits {
		t.Fatalf("the lookup did not lead a flight: misses %d -> %d, dedupe waits %d -> %d",
			before.MemoMisses, got.MemoMisses, before.DedupeWaits, got.DedupeWaits)
	}
	if p.done != nil || p.flight != nil || p.out != rec.out {
		t.Fatal("the leader did not re-install its record")
	}
	if out, hit := cc.cache.Peek(key); !hit || out != rec.out {
		t.Fatal("the leader's flight did not insert the record's output")
	}
	if out, hit, flight, _ := cc.cache.Lookup(key); !hit || out != rec.out || flight != nil {
		t.Fatal("a later lookup of the key found no entry")
	}
	settle(t, sys, e)
	if runs.Load() != base {
		t.Errorf("%d pipeline runs, want 0", runs.Load()-base)
	}
	if c := sys.disp[e].code; c == nil || c.cr != rec.out.cr {
		t.Error("the leader did not install the record's CompiledRegion")
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
		{"inline", 0, 208, 14},
		{"queued", 1, 275, 13},
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

// TestReuseDecisionZeroAllocs pins the reuse decision — building the
// input view and comparing it with the install record's snapshot — at
// zero heap allocations: the pin and blacklist copies are made only when
// the pipeline runs. The live sets are deliberately nonempty.
func TestReuseDecisionZeroAllocs(t *testing.T) {
	sys, e := installedSystem(t, 0)
	rr := sys.disp[e].rec
	rr.blacklist = alias.Blacklist{alias.MakePair(3, 1): true, alias.MakePair(2, 5): true}
	rr.pins = map[int]bool{9: true, 2: true}
	sys.recompileRegion(e, true)
	if sys.disp[e].code == nil {
		t.Fatal("recompile installed no code")
	}
	allocs := testing.AllocsPerRun(200, func() {
		in, err := sys.newCompileInput(e)
		rec := sys.installRecordOf(e)
		if err != nil || rec.in == nil || !rec.in.equal(&in) {
			t.Fatalf("unchanged inputs do not compare equal (err %v)", err)
		}
	})
	if allocs != 0 {
		t.Errorf("the reuse decision allocates %.1f times, want 0", allocs)
	}
}

// TestInlineReinstallZeroAllocs pins a whole inline recompile with
// unchanged inputs at zero heap allocations: the decision, the install
// path and the compiled record, which is overwritten in place.
func TestInlineReinstallZeroAllocs(t *testing.T) {
	sys, e := installedSystem(t, 0)
	runs := countPipelineRuns(t)
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
// rungs in between do not evict it — and is charged as for a compile.
func TestPromotionReinstallsEarlierTier(t *testing.T) {
	sys, e := installedSystem(t, 0)
	rr := sys.disp[e].rec
	rr.installs = [TierPinned]installRecord{}
	runs := countPipelineRuns(t)

	rr.Level = TierFull
	sys.recompileRegion(e, true)
	full := sys.disp[e].code.cr
	rr.Level = TierNoStoreReorder
	sys.recompileRegion(e, true)
	if runs.Load() != 2 {
		t.Fatalf("%d pipeline runs to build the full and no-store-reorder tiers, want 2", runs.Load())
	}
	if sys.disp[e].code.cr == full {
		t.Fatal("the no-store-reorder build is the full tier's code")
	}
	nsr := rr.installs[TierNoStoreReorder]
	rr.Level = TierFull
	fullOps := sys.installRecordOf(e).out.numOps
	before := sys.Stats

	sys.recompileRegion(e, true)

	if runs.Load() != 2 {
		t.Errorf("returning to the full tier ran the pipeline %d more times, want 0", runs.Load()-2)
	}
	if c := sys.disp[e].code; c == nil || c.cr != full {
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
	if rr.installs[TierNoStoreReorder] != nsr {
		t.Error("re-installing the full tier disturbed the no-store-reorder record")
	}
}

// TestInstallRecordsClearedOnReform: the guard-fail drop clears the
// region's superblock and its install records — every record holds the
// dropped superblock, so none could match again — and nothing else: the
// blacklist, the pins, the exception count, the ladder (tier and backoff
// included) and the quarantine bit survive, so the re-formed region
// resumes what it learned.
func TestInstallRecordsClearedOnReform(t *testing.T) {
	sys, e := installedSystem(t, 0)
	sys.borrowExec() // runRegion below dispatches outside Run
	defer sys.returnExec()
	rr := sys.disp[e].rec
	if sys.installRecordOf(e).out == nil {
		t.Fatal("the installed region has no install record")
	}
	rr.blacklist = alias.Blacklist{alias.MakePair(3, 1): true}
	rr.pins = map[int]bool{9: true}
	rr.exceptions = 5
	rr.Level, rr.Backoff, rr.Demotions = TierNoElim, 4, 2
	rr.quarantined = true
	want := *rr
	want.sb, want.installs = nil, [TierPinned]installRecord{}

	sys.inj = faultinject.New(faultinject.Config{Seed: 1, GuardFailRate: 1})
	c := sys.disp[e].code
	c.failStreak = maxGuardFails - 1
	sys.runRegion(e, c)
	if rr.sb != nil || sys.disp[e].code != nil {
		t.Fatal("the guard-fail storm did not drop the region and its superblock")
	}
	if rr.installs != [TierPinned]installRecord{} {
		t.Error("install records survived the superblock drop")
	}
	if !reflect.DeepEqual(*rr, want) {
		t.Errorf("the drop changed more than the superblock and install records:\ngot  %+v\nwant %+v", *rr, want)
	}
}

// TestInputEqualCoversEveryField requires every optimizer and scheduler
// configuration field, and both sets, to reach compileInput.equal, so a
// field added to opt.Config, sched.Config, vliw.Config or core.Options
// cannot silently fall out of the reuse check.
func TestInputEqualCoversEveryField(t *testing.T) {
	base := sampleCompileInput(t)
	for _, root := range []string{"optCfg", "scfg", "blacklist"} {
		in := base.snapshot()
		perturbEach(t, reflect.ValueOf(in).Elem().FieldByName(root), root, func(path string) {
			if base.equal(in) {
				t.Errorf("%s does not reach compileInput.equal", path)
			}
		})
		if !base.equal(in) {
			t.Errorf("%s: perturbation not restored", root)
		}
	}
}

// perturbEach changes each leaf under v in turn (an integer by one, a
// bool flipped, a map by one extra entry), calls check, and restores it.
func perturbEach(t *testing.T, v reflect.Value, path string, check func(path string)) {
	t.Helper()
	// Unexported fields are reached through an addressable copy of the
	// pointer, which lets reflect set them.
	v = reflect.NewAt(v.Type(), v.Addr().UnsafePointer()).Elem()
	orig := reflect.New(v.Type()).Elem()
	orig.Set(v)
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturbEach(t, v.Field(i), path+"."+v.Type().Field(i).Name, check)
		}
		return
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Map:
		m := reflect.MakeMap(v.Type())
		for it := v.MapRange(); it.Next(); {
			m.SetMapIndex(it.Key(), it.Value())
		}
		// A key not yet present: count up its first int (an op ID, or a
		// pair's first op).
		k := reflect.New(v.Type().Key()).Elem()
		n := k
		if n.Kind() == reflect.Struct {
			n = n.Field(0)
		}
		for m.MapIndex(k).IsValid() {
			n.SetInt(n.Int() + 1)
		}
		m.SetMapIndex(k, reflect.ValueOf(true))
		v.Set(m)
	default:
		t.Fatalf("%s: no perturbation for kind %v", path, v.Kind())
	}
	check(path)
	v.Set(orig)
}
