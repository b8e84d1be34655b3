package dynopt

import (
	"errors"
	"fmt"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/health"
)

// smallHealthConfig is tuned so the controller actually moves within a
// test-sized run: tight window, every host fault demotes, short clean
// runs promote.
func smallHealthConfig() health.Config {
	return health.Config{
		Window:          32,
		DemoteThreshold: 4,
		HostFaultWeight: 4,
		PromoteAfter:    2,
		BackoffFactor:   2,
		MaxBackoff:      1 << 20, // never sticky unless a test wants it
	}
}

// TestHostChaosDeterministic is the tentpole acceptance test: under the
// full host-fault mix (worker panics, compile hangs, poisoned results)
// with the health controller on, the run
// completes with bit-exact state, stats, event trace and metrics at any
// background worker count — host faults are drawn on the simulation
// thread, so worker scheduling cannot perturb them.
func TestHostChaosDeterministic(t *testing.T) {
	progs := map[string]func() *guest.Program{
		"sumloop":  func() *guest.Program { return sumLoopProgram(2000) },
		"aliasing": func() *guest.Program { return aliasingProgram(2500, 7) },
	}
	for pname, build := range progs {
		for _, seed := range []int64{11, 23} {
			t.Run(fmt.Sprintf("%s/seed%d", pname, seed), func(t *testing.T) {
				baseCfg := func(workers int) Config {
					cfg := ConfigSMARQ(64)
					cfg.Compile.Workers = workers
					cfg.Chaos = faultinject.DefaultHost(seed)
					cfg.CheckInvariants = true
					cfg.Health = smallHealthConfig()
					return cfg
				}
				inj := checkWorkersInvisible(t, build, baseCfg).sys.Stats.Injected
				if inj.WorkerPanics+inj.CompileHangs+inj.PoisonedResults == 0 {
					t.Errorf("seed %d injected no host faults — the test exercised nothing: %+v", seed, inj)
				}
			})
		}
	}
}

// TestCompileLifecycleInvariant: every compile that enqueues ends in
// exactly one of install, failure or cancellation — inline (Workers 0)
// as well as queued, under the full host-fault mix and the health
// controller.
func TestCompileLifecycleInvariant(t *testing.T) {
	progs := map[string]func() *guest.Program{
		"sumloop":  func() *guest.Program { return sumLoopProgram(2000) },
		"aliasing": func() *guest.Program { return aliasingProgram(2500, 7) },
	}
	for _, workers := range []int{0, 1, 2} {
		var total CompileStats
		for pname, build := range progs {
			// Seed 16 is the one here whose queued runs cancel a
			// compile (on aliasing).
			for _, seed := range []int64{7, 11, 16, 23} {
				cfg := ConfigSMARQ(64)
				cfg.Compile.Workers = workers
				cfg.Chaos = faultinject.DefaultHost(seed)
				cfg.Health = smallHealthConfig()
				c := runInstrumented(t, build(), 1<<16, cfg).sys.Stats.Compile
				if c.Enqueued == 0 || c.Enqueued != c.Installed+c.Failed+c.Canceled {
					t.Errorf("workers=%d %s/seed%d: enqueued %d, want > 0 and == installed %d + failed %d + canceled %d",
						workers, pname, seed, c.Enqueued, c.Installed, c.Failed, c.Canceled)
				}
				total.Failed += c.Failed
				total.Canceled += c.Canceled
			}
		}
		// Every outcome is exercised; inline compiles install inside their
		// request, so nothing is ever pending to cancel.
		if total.Failed == 0 {
			t.Errorf("workers=%d: no compile failed — the host-fault path went unexercised", workers)
		}
		if inline := workers == 0; inline != (total.Canceled == 0) {
			t.Errorf("workers=%d: %d compiles canceled", workers, total.Canceled)
		}
	}
}

// TestHostChaosSoak extends the chaos soak to every host-fault mix: each
// class alone at an extreme rate, and all of them together, must still
// produce the reference interpreter's final state bit for bit — host
// faults may only delay or suppress compiled code, never change what it
// computes.
func TestHostChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("host chaos soak skipped in -short mode")
	}
	mixes := map[string]func(seed int64) faultinject.Config{
		"panic":  func(seed int64) faultinject.Config { return faultinject.Config{Seed: seed, WorkerPanicRate: 0.5} },
		"hang":   func(seed int64) faultinject.Config { return faultinject.Config{Seed: seed, CompileHangRate: 0.5} },
		"poison": func(seed int64) faultinject.Config { return faultinject.Config{Seed: seed, PoisonResultRate: 0.5} },
		"all":    faultinject.DefaultHost,
	}
	for mname, mk := range mixes {
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", mname, workers), func(t *testing.T) {
				cfg := ConfigSMARQ(64)
				cfg.Compile.Workers = workers
				cfg.Chaos = mk(31)
				cfg.CheckInvariants = true
				cfg.Health = smallHealthConfig()
				sys, ref := runBoth(t, aliasingProgram(2500, 7), cfg, 1<<16)
				assertSameState(t, sys, ref, 1<<16)
				if sys.Stats.Recovery.InvariantViolations != 0 {
					t.Errorf("%d invariant violations with corruption off",
						sys.Stats.Recovery.InvariantViolations)
				}
			})
		}
	}
}

// TestWorkerPanicNeverKillsProcess: with every compile job panicking, the
// recover() backstop must convert each panic into a failed compile, the
// region must be quarantined, and the run must still halt with the exact
// interpreted state. Covers both the synchronous and background paths.
func TestWorkerPanicNeverKillsProcess(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := ConfigSMARQ(64)
			cfg.Compile.Workers = workers
			cfg.Chaos = faultinject.Config{Seed: 9, WorkerPanicRate: 1}
			cfg.CheckInvariants = true
			sys, ref := runBoth(t, sumLoopProgram(3000), cfg, 1<<16)
			assertSameState(t, sys, ref, 1<<16)
			cs := sys.Stats.Compile
			if cs.WorkerPanics == 0 {
				t.Fatalf("rate-1 panic injection never fired: %+v", cs)
			}
			if cs.Installed != 0 {
				t.Errorf("installed %d regions though every compile panicked", cs.Installed)
			}
			if cs.Quarantined == 0 {
				t.Error("no region quarantined after its compile panicked")
			}
			if sys.Stats.Injected.WorkerPanics != cs.WorkerPanics {
				t.Errorf("injector fired %d panics, pipeline recovered %d",
					sys.Stats.Injected.WorkerPanics, cs.WorkerPanics)
			}
		})
	}
}

// TestWatchdogKillsHungCompiles: with every background compile hanging,
// the watchdog must discard each job at its simulated-cycle deadline —
// nothing installs, nothing blocks, and the run still matches the
// interpreter.
func TestWatchdogKillsHungCompiles(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 2
	cfg.Chaos = faultinject.Config{Seed: 13, CompileHangRate: 1}
	cfg.CheckInvariants = true
	sys, ref := runBoth(t, sumLoopProgram(3000), cfg, 1<<16)
	assertSameState(t, sys, ref, 1<<16)
	cs := sys.Stats.Compile
	if cs.WatchdogKills == 0 {
		t.Fatalf("rate-1 hang injection produced no watchdog kills: %+v", cs)
	}
	if cs.Installed != 0 {
		t.Errorf("installed %d regions though every compile hung", cs.Installed)
	}
	if cs.WatchdogKills != sys.Stats.Injected.CompileHangs {
		t.Errorf("injector hung %d compiles, watchdog killed %d",
			sys.Stats.Injected.CompileHangs, cs.WatchdogKills)
	}
}

// TestPoisonedResultsNeverInstall: with every compile result poisoned,
// install-time validation (checksum plus structural invariants — the
// injector alternates which layer is attacked) must reject every result;
// nothing is recorded or dispatched and the state stays exact.
func TestPoisonedResultsNeverInstall(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := ConfigSMARQ(64)
			cfg.Compile.Workers = workers
			cfg.Chaos = faultinject.Config{Seed: 21, PoisonResultRate: 1}
			cfg.CheckInvariants = true
			sys, ref := runBoth(t, sumLoopProgram(3000), cfg, 1<<16)
			assertSameState(t, sys, ref, 1<<16)
			cs := sys.Stats.Compile
			if cs.Rejected < 2 {
				t.Fatalf("want >= 2 rejections so both poison modes are exercised: %+v", cs)
			}
			if cs.Installed != 0 {
				t.Errorf("installed %d poisoned regions", cs.Installed)
			}
			if cs.Rejected != sys.Stats.Injected.PoisonedResults {
				t.Errorf("injector poisoned %d results, validation rejected %d",
					sys.Stats.Injected.PoisonedResults, cs.Rejected)
			}
		})
	}
}

// TestOneOutputScreen: a store leader's insert and the install point's
// admission are one verdict (screenOutput). Over a clean output,
// a pipeline error, a panicked job and both poison modes, the screen the
// leader inserts on passes exactly the outputs admitOutput accepts, and
// admitOutput moves Rejected, WorkerPanics and Quarantined for the
// failure it saw and nothing else. TestLeaderCachesWhatInstallAdmits
// drives the leader itself.
func TestOneOutputScreen(t *testing.T) {
	type moved struct{ rejected, panics, quarantined int64 }
	jobOutput := func(in compileInput, panicInject bool, poison faultinject.PoisonMode) *compileOutput {
		out := &compileOutput{in: in}
		runCompileJob(out, panicInject, poison)
		return out
	}
	for _, tc := range []struct {
		name  string
		out   func(in compileInput) *compileOutput
		admit bool
		want  moved
	}{
		{"clean", func(in compileInput) *compileOutput {
			return jobOutput(in, false, faultinject.PoisonNone)
		}, true, moved{}},
		{"pipeline-error", func(in compileInput) *compileOutput {
			return &compileOutput{err: errors.New("unschedulable")}
		}, false, moved{}},
		{"panicked", func(in compileInput) *compileOutput {
			return jobOutput(in, true, faultinject.PoisonNone)
		}, false, moved{panics: 1, quarantined: 1}},
		{"poison-checksum", func(in compileInput) *compileOutput {
			return jobOutput(in, false, faultinject.PoisonChecksum)
		}, false, moved{rejected: 1}},
		{"poison-structure", func(in compileInput) *compileOutput {
			return jobOutput(in, false, faultinject.PoisonStructure)
		}, false, moved{rejected: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, e := installedSystem(t, 0)
			in, err := sys.newCompileInput(e)
			if err != nil {
				t.Fatal(err)
			}
			out := tc.out(in)
			inserts := screenOutput(e, out) == nil

			before := sys.Stats.Compile
			admitted := sys.admitOutput(e, out) == nil
			if admitted != tc.admit {
				t.Fatalf("admitOutput accepted=%v, want %v", admitted, tc.admit)
			}
			if inserts != admitted {
				t.Errorf("leader inserts=%v, admitOutput accepted=%v", inserts, admitted)
			}
			cs := sys.Stats.Compile
			if got := (moved{cs.Rejected - before.Rejected, cs.WorkerPanics - before.WorkerPanics,
				cs.Quarantined - before.Quarantined}); got != tc.want {
				t.Errorf("Rejected/WorkerPanics/Quarantined moved %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestLeaderCachesWhatInstallAdmits runs TestOneOutputScreen's injectable
// outputs through a real queued request over an empty output store. A
// request with no drawn fault leads the key's store flight, and its job's
// result enters the store exactly when the leader's own install point
// admits it: a pipeline error settles the flight but is not stored. A
// request with a drawn panic or poison leads no flight, so its private
// job never reaches the store.
func TestLeaderCachesWhatInstallAdmits(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chaos  faultinject.Config
		skip   uint32 // the region's poison ordinal (the mode alternates checksum, structure)
		fails  bool   // the pipeline returns an error
		leads  bool
		admits bool
	}{
		{"clean", faultinject.Config{}, 0, false, true, true},
		{"pipeline-error", faultinject.Config{}, 0, true, true, false},
		{"panicked", faultinject.Config{Seed: 1, WorkerPanicRate: 1}, 0, false, false, false},
		{"poison-checksum", faultinject.Config{Seed: 1, PoisonResultRate: 1}, 0, false, false, false},
		{"poison-structure", faultinject.Config{Seed: 1, PoisonResultRate: 1}, 1, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, e := installedSystem(t, 1)
			sys.inj = faultinject.New(tc.chaos)
			sys.disp[e].rec.draws = &faultinject.Ordinals{faultinject.PoisonResult: tc.skip}
			if tc.fails {
				swapPipeline(t, func(out *compileOutput) *compileOutput {
					out.err = errors.New("unschedulable")
					return out
				})
			} else {
				useStore(t, outputStoreBytes) // run a job
			}
			in, err := sys.newCompileInput(e)
			if err != nil {
				t.Fatal(err)
			}
			installed := sys.Stats.Compile.Installed

			sys.recompileRegion(e, false)
			var leads int64
			if tc.leads {
				leads = 1
			}
			if got := outputStore.Stats().Compiles; got != leads {
				t.Fatalf("the recompile led %d store flights, want %d", got, leads)
			}
			settle(t, sys, e)

			admitted := sys.Stats.Compile.Installed > installed
			_, stored := outputStore.Peek(in.key)
			if admitted != tc.admits || stored != admitted {
				t.Errorf("install admitted=%v (want %v), leader stored=%v", admitted, tc.admits, stored)
			}
		})
	}
}

// TestHealthWalksDownAndRecoversInSystem drives the health controller
// end to end: a sustained poison storm sheds levels down to compile-off,
// interpreted progress then earns promotions back, and the flapping
// leaves both demotions and promotions on the books — while the final
// state still matches the interpreter exactly.
func TestHealthWalksDownAndRecoversInSystem(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 2
	cfg.Chaos = faultinject.Config{Seed: 3, PoisonResultRate: 1}
	cfg.CheckInvariants = true
	cfg.Health = smallHealthConfig()
	sys, ref := runBoth(t, sumLoopProgram(4000), cfg, 1<<16)
	assertSameState(t, sys, ref, 1<<16)

	hs := sys.Stats.Health
	if hs.Demotions == 0 {
		t.Fatalf("poison storm never demoted: %+v", hs)
	}
	if hs.LevelEntries[health.CompileOff] == 0 {
		t.Errorf("controller never reached compile-off: %+v", hs)
	}
	if hs.Promotions == 0 {
		t.Errorf("controller never promoted back up: %+v", hs)
	}
	if hs.HostFaults == 0 || hs.Cleans == 0 {
		t.Errorf("controller starved of observations: %+v", hs)
	}
}

// TestHealthQuarantineBarsNewRegions: a worker-panic storm with a small
// backoff cap drives the controller sticky at the quarantine level, where
// newly hot regions are permanently barred from compiling.
func TestHealthQuarantineBarsNewRegions(t *testing.T) {
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 2
	cfg.Chaos = faultinject.Config{Seed: 5, WorkerPanicRate: 1}
	cfg.CheckInvariants = true
	hcfg := smallHealthConfig()
	hcfg.MaxBackoff = 2 // any flap exhausts the backoff
	cfg.Health = hcfg
	sys, ref := runBoth(t, aliasingProgram(2500, 7), cfg, 1<<16)
	assertSameState(t, sys, ref, 1<<16)

	hs := sys.Stats.Health
	if hs.FinalLevel != health.Quarantine {
		t.Fatalf("final level %s, want quarantine: %+v", hs.FinalLevel, hs)
	}
	if sys.Stats.Compile.Quarantined == 0 {
		t.Error("no region quarantined under a panic storm at the quarantine level")
	}
	if sys.Stats.Compile.Installed != 0 {
		t.Errorf("installed %d regions though every compile panicked", sys.Stats.Compile.Installed)
	}
}
