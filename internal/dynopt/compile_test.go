package dynopt

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
)

// bgRun is one instrumented run: the stats, the full JSONL event trace,
// the metrics snapshot, and the final guest state/memory.
type bgRun struct {
	sys     *System
	st      *guest.State
	mem     *guest.Memory
	trace   []byte
	metrics []byte
}

// runInstrumented executes prog under cfg with a JSONL tracer and a
// metrics registry attached, so runs can be compared byte-for-byte. It
// runs over an empty output store, so every run compiles what it would
// alone in the process, whatever ran before it.
func runInstrumented(t *testing.T, prog *guest.Program, memSize int, cfg Config) *bgRun {
	t.Helper()
	useStore(t, outputStoreBytes)
	var jb, mb bytes.Buffer
	tel := &telemetry.Telemetry{
		Events:  telemetry.NewTracer(0, telemetry.NewJSONLSink(&jb)),
		Metrics: telemetry.NewRegistry(),
	}
	cfg.Telemetry = tel
	r := &bgRun{st: &guest.State{}, mem: guest.NewMemory(memSize)}
	r.sys = New(prog, r.st, r.mem, cfg)
	halted, err := r.sys.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !halted {
		t.Fatal("run did not halt")
	}
	if err := tel.Events.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tel.Metrics.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	r.trace = jb.Bytes()
	r.metrics = mb.Bytes()
	return r
}

// TestBackgroundWorkersDeterministic is the tentpole's core guarantee:
// the host worker count is invisible to the simulation. Every Workers
// N >= 1 must produce byte-identical stats, telemetry streams and guest
// state — including under chaos injection, whose draws happen at enqueue
// on the simulation thread precisely so the injector sequence cannot
// depend on worker scheduling. Each run compiles on the pool over an
// empty output store (checkWorkersInvisible).
func TestBackgroundWorkersDeterministic(t *testing.T) {
	progs := map[string]func() *guest.Program{
		"sumloop":  func() *guest.Program { return sumLoopProgram(2000) },
		"aliasing": func() *guest.Program { return aliasingProgram(2500, 7) },
	}
	arms := []struct {
		name string
		seed int64
	}{
		{"plain", 0},
		{"chaos", 7},
	}
	for pname, build := range progs {
		for _, arm := range arms {
			t.Run(pname+"/"+arm.name, func(t *testing.T) {
				baseCfg := func(workers int) Config {
					cfg := ConfigSMARQ(64)
					cfg.Compile.Workers = workers
					if arm.seed != 0 {
						cfg.Chaos = faultinject.Default(arm.seed)
						cfg.CheckInvariants = true
					}
					return cfg
				}
				checkWorkersInvisible(t, build, baseCfg)
			})
		}
	}
}

// checkWorkersInvisible runs build's program at workers 1, 2 and 4, each
// over an empty output store, and requires byte-identical stats, event
// trace, metrics and guest state, and the same nonzero number of pipeline
// runs: every run compiles on the pool, none re-installs another run's
// builds. It returns the workers=1 run.
func checkWorkersInvisible(t *testing.T, build func() *guest.Program, cfg func(workers int) Config) *bgRun {
	t.Helper()
	runs := countPipelineRuns(t)
	ref := runInstrumented(t, build(), 1<<16, cfg(1))
	refRuns := runs.Swap(0)
	if refRuns == 0 {
		t.Error("workers=1: the run compiled nothing on the pool")
	}
	for _, workers := range []int{2, 4} {
		got := runInstrumented(t, build(), 1<<16, cfg(workers))
		if n := runs.Swap(0); n != refRuns {
			t.Errorf("workers=%d: %d pipeline runs, workers=1 ran %d", workers, n, refRuns)
		}
		if !reflect.DeepEqual(ref.sys.Stats, got.sys.Stats) {
			t.Errorf("workers=%d: stats diverge from workers=1\n 1: %+v\n%2d: %+v",
				workers, ref.sys.Stats, workers, got.sys.Stats)
		}
		if !bytes.Equal(ref.trace, got.trace) {
			t.Errorf("workers=%d: event trace diverges from workers=1", workers)
		}
		if !bytes.Equal(ref.metrics, got.metrics) {
			t.Errorf("workers=%d: metrics snapshot diverges from workers=1", workers)
		}
		snap := faultinject.Capture(ref.st, ref.mem)
		if err := snap.Verify(got.st, got.mem); err != nil {
			t.Errorf("workers=%d: guest state diverges from workers=1: %v", workers, err)
		}
	}
	return ref
}

// TestRunWaitsForItsJobs: a queued System submits its jobs to the
// process's compile pool, and every return of Run waits for them, so no
// job of a run runs once Run has returned. The swapped pipeline counts
// running jobs, holds each for a millisecond, and counts every job that
// starts or ends while no Run is active. Fresh Systems first run to
// growing budget caps until five of them have returned with a compile
// pending, and each then runs to halt. After a Run that left a compile
// pending, the test idles a few milliseconds, long enough for a job that
// outlived the Run to reach a worker. Run restarts at the entry, so the
// program's loop head is its entry block.
func TestRunWaitsForItsJobs(t *testing.T) {
	var running, outside atomic.Int64
	var inRun atomic.Bool
	swapPipeline(t, func(out *compileOutput) *compileOutput {
		if !inRun.Load() {
			outside.Add(1)
		}
		running.Add(1)
		time.Sleep(time.Millisecond)
		runCompilePipeline(out, nil)
		running.Add(-1)
		if !inRun.Load() {
			outside.Add(1)
		}
		return out
	})

	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 1
	pendingAtReturn := 0
	for budget := uint64(10); pendingAtReturn < 5; budget += 10 {
		if budget > 20_000 {
			t.Fatalf("only %d budget caps left a compile pending", pendingAtReturn)
		}
		// An empty output store, so this System's compiles run jobs.
		outputStore = newOutputStore(outputStoreBytes)
		sys := New(entryLoopProgram(4000), &guest.State{}, guest.NewMemory(1<<16), cfg)
		for _, b := range []uint64{budget, 50_000_000} {
			canceled := sys.Stats.Compile.Canceled
			inRun.Store(true)
			_, err := sys.Run(b)
			inRun.Store(false)
			if err != nil {
				t.Fatal(err)
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("Run(%d) returned with %d compile jobs still running", b, n)
			}
			if sys.Stats.Compile.Canceled > canceled {
				pendingAtReturn++
				time.Sleep(5 * time.Millisecond)
			}
			if n := outside.Load(); n != 0 {
				t.Fatalf("after Run(%d), compile jobs started or ended %d times with no Run active", b, n)
			}
		}
		if sys.Stats.Compile.Installed == 0 {
			t.Fatalf("budget %d: no compile installed: %+v", budget, sys.Stats.Compile)
		}
	}
}

// TestBackgroundMatchesInterpreter: background compilation changes when
// code installs, never what it computes — the final guest state must
// still equal pure interpretation.
func TestBackgroundMatchesInterpreter(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 2
	sys, ref := runBoth(t, aliasingProgram(2500, 7), cfg, 1<<16)
	assertSameState(t, sys, ref, 1<<16)
	if sys.Stats.Compile.Installed == 0 {
		t.Error("background path installed no regions — the test exercised nothing")
	}
}

// TestBackgroundLatencyModel checks the cycle accounting split: the
// synchronous path charges Opt/SchedCycles on the critical path, the
// background path charges the latency model's occupancy to WorkCycles
// (excluded from TotalCycles) and nothing to Opt/SchedCycles.
func TestBackgroundLatencyModel(t *testing.T) {
	mk := func(workers int) Config {
		cfg := ConfigSMARQ(64)
		cfg.Compile.Workers = workers
		return cfg
	}
	syncRun := runInstrumented(t, sumLoopProgram(2000), 1<<16, mk(0))
	bg := runInstrumented(t, sumLoopProgram(2000), 1<<16, mk(1))

	ss, bs := syncRun.sys.Stats, bg.sys.Stats
	// Inline compiles run the same lifecycle but never queue: they are
	// counted, and charge nothing to the queue's latency model.
	if c := ss.Compile; c.Enqueued == 0 || c.Enqueued != c.Installed+c.Failed+c.Canceled {
		t.Errorf("sync path lifecycle: enqueued %d, want > 0 and == installed %d + failed %d + canceled %d",
			c.Enqueued, c.Installed, c.Failed, c.Canceled)
	}
	if c := ss.Compile; c.WorkCycles != 0 || c.LatencySum != 0 || c.MaxQueueDepth != 0 {
		t.Errorf("sync path recorded queue stats: %+v", c)
	}
	if ss.OptCycles == 0 || ss.SchedCycles == 0 {
		t.Error("sync path charged no compile cycles on the critical path")
	}
	if bs.Compile.Installed == 0 {
		t.Fatalf("background path installed nothing: %+v", bs.Compile)
	}
	if bs.OptCycles != 0 || bs.SchedCycles != 0 {
		t.Errorf("background path charged critical-path compile cycles: opt=%d sched=%d",
			bs.OptCycles, bs.SchedCycles)
	}
	if bs.Compile.WorkCycles == 0 {
		t.Error("background path charged no WorkCycles")
	}
	// Observed latency can only exceed the modelled cost: installs happen
	// at the first drain point at or after readyAt.
	if bs.Compile.LatencySum < bs.Compile.WorkCycles {
		t.Errorf("latency sum %d below modelled occupancy %d",
			bs.Compile.LatencySum, bs.Compile.WorkCycles)
	}
	// While a compile is in flight the region keeps interpreting, so the
	// background run interprets at least as many instructions.
	if bs.InterpretedInsts < ss.InterpretedInsts {
		t.Errorf("background interpreted %d insts, sync %d — install delay should never reduce interpretation",
			bs.InterpretedInsts, ss.InterpretedInsts)
	}
	// Per-region latencies are recorded.
	var withLatency int
	for _, r := range bg.sys.Stats.Regions {
		if r.CompileLatency > 0 {
			withLatency++
		}
	}
	if withLatency == 0 {
		t.Error("no region recorded a CompileLatency")
	}
}

// TestInjectedCompileFailBackoff pins satellite policy: chaos-injected
// compile failures back off additively with a bounded streak, while
// genuine scheduling failures keep the structural doubling — so a chaos
// soak cannot compound the doubling and pin hot regions in the
// interpreter.
func TestInjectedCompileFailBackoff(t *testing.T) {
	cfg := ConfigSMARQ(64)
	sys := New(sumLoopProgram(10), &guest.State{}, guest.NewMemory(1<<16), cfg)
	const entry = 3
	sys.it.Prof.BlockCounts[entry] = 1000
	hot := sys.cfg.HotThreshold
	// An injected failure is the sentinel itself: the chaos event names
	// the region, so the request formats nothing and allocates nothing
	// once the region has its draw ordinals.
	sys.inj = faultinject.New(faultinject.Config{Seed: 1, CompileFailRate: 1})
	lendExec(t, sys)
	injected := sys.requestCompile(entry)
	if injected != errInjectedCompileFail {
		t.Fatalf("an injected compile failure returned %v, want errInjectedCompileFail", injected)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = sys.requestCompile(entry) }); allocs != 0 {
		t.Errorf("an injected compile failure allocates %.1f times, want 0", allocs)
	}
	sys.inj = nil

	for i := uint64(1); i <= 2*injFailStreakCap; i++ {
		sys.compileFailBackoff(entry, injected)
		streak := i
		if streak > injFailStreakCap {
			streak = injFailStreakCap
		}
		if want := 1000 + streak*hot; sys.disp[entry].cooldown != want {
			t.Fatalf("after %d injected failures: cooldown %d, want %d",
				i, sys.disp[entry].cooldown, want)
		}
	}
	// The additive policy is bounded: the cap holds no matter how long
	// the chaos streak runs.
	if cap := 1000 + injFailStreakCap*hot; sys.disp[entry].cooldown > cap {
		t.Errorf("injected-failure cooldown %d exceeds additive cap %d", sys.disp[entry].cooldown, cap)
	}
	// A genuine failure still doubles.
	sys.compileFailBackoff(entry, errors.New("dynopt: region B3 cannot be scheduled"))
	if want := uint64(2000); sys.disp[entry].cooldown != want {
		t.Errorf("after real failure: cooldown %d, want %d", sys.disp[entry].cooldown, want)
	}
}

// TestInjectedFailStreakResetsOnInstall: a successful install clears the
// injected-failure streak, so the next chaos burst starts the additive
// backoff from scratch.
func TestInjectedFailStreakResetsOnInstall(t *testing.T) {
	cfg := ConfigSMARQ(64)
	sys := New(sumLoopProgram(400), &guest.State{}, guest.NewMemory(1<<16), cfg)
	// Seed a phantom streak on every block; each successful install must
	// clear its entry's streak (compileFailBackoff restarts at 1 after).
	for b := range sys.it.Prof.BlockCounts {
		sys.recordOf(b).injFailStreak = 5
	}
	if halted, err := sys.Run(50_000_000); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if len(sys.Stats.Regions) == 0 {
		t.Fatal("run compiled no regions")
	}
	for _, r := range sys.Stats.Regions {
		if got := sys.disp[r.Entry].rec.injFailStreak; got != 0 {
			t.Errorf("B%d: streak %d after successful install, want cleared", r.Entry, got)
		}
	}
}

// TestInjectedFailuresDoNotPinRegions is the end-to-end regression for
// the backoff split: even under an extreme injected compile-failure
// rate, hot regions must eventually compile (and the run must still
// match pure interpretation).
func TestInjectedFailuresDoNotPinRegions(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := ConfigSMARQ(64)
			cfg.Compile.Workers = workers
			cfg.Chaos = faultinject.Config{Seed: 5, CompileFailRate: 0.8}
			cfg.CheckInvariants = true
			sys, ref := runBoth(t, sumLoopProgram(4000), cfg, 1<<16)
			assertSameState(t, sys, ref, 1<<16)
			if sys.Stats.RegionsCompiled == 0 {
				t.Errorf("no region compiled under 80%% injected failures: %+v", sys.Stats.Compile)
			}
		})
	}
}
