package dynopt

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// runRecorded runs bm to halt (or maxInsts) on a fresh System of cfg and
// returns what the run leaves behind, with the System.
func runRecorded(bm workload.Benchmark, maxInsts uint64, cfg Config) (tenantRun, *System, error) {
	sink := &captureSink{}
	cfg.Telemetry = &telemetry.Telemetry{Events: telemetry.NewTracer(0, sink)}
	sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	if _, err := sys.Run(maxInsts); err != nil {
		return tenantRun{}, nil, err
	}
	if err := cfg.Telemetry.Tracer().Flush(); err != nil {
		return tenantRun{}, nil, err
	}
	return tenantRun{stats: sys.Stats, events: sink.events, state: *sys.State(), digest: sys.Mem().Digest()}, sys, nil
}

func mustBenchmark(t *testing.T, name string) workload.Benchmark {
	t.Helper()
	bm, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no benchmark %q", name)
	}
	return bm
}

// storeArms are the chaos mixes the store tests run under: none, guest
// faults only, and guest plus host faults.
var storeArms = []struct {
	name  string
	chaos faultinject.Config
}{
	{"plain", faultinject.Config{}},
	{"chaos", faultinject.Default(7)},
	{"hostchaos", faultinject.DefaultHost(3)},
}

// TestStoreWarmRunMatchesCold: a System that finds its builds in the
// output store, put there by an earlier System, ends exactly as a run over
// an empty store — Stats, events, registers and memory — and runs no
// pipeline, except for the fresh jobs a drawn poison forces. The earlier
// System may run another program: equake's run stores the trace fma3d
// shares with it, so fma3d then runs the pipeline once less and installs
// code whose input came from equake's program.
func TestStoreWarmRunMatchesCold(t *testing.T) {
	for _, tc := range []struct {
		warm, run string
		saved     int64 // pipeline runs the warm store saves; 0 = all but the poisoned
	}{
		{"ammp", "ammp", 0},
		{"equake", "fma3d", 1},
	} {
		warmBM, bm := mustBenchmark(t, tc.warm), mustBenchmark(t, tc.run)
		for _, arm := range storeArms {
			for _, workers := range []int{0, 1} {
				t.Run(fmt.Sprintf("%s+%s/%s/workers%d", tc.warm, tc.run, arm.name, workers), func(t *testing.T) {
					cfg := ConfigSMARQ(64)
					cfg.Chaos = arm.chaos
					cfg.Compile.Workers = workers
					runs := countPipelineRuns(t)
					cold, _, err := runRecorded(bm, bm.MaxInsts, cfg)
					if err != nil {
						t.Fatal(err)
					}
					coldRuns := runs.Load()

					useStore(t, outputStoreBytes)
					if _, _, err := runRecorded(warmBM, warmBM.MaxInsts, cfg); err != nil {
						t.Fatal(err)
					}
					runs.Store(0)
					warm, sys, err := runRecorded(bm, bm.MaxInsts, cfg)
					if err != nil {
						t.Fatal(err)
					}

					if !reflect.DeepEqual(warm.stats, cold.stats) {
						t.Errorf("stats diverge from the cold-store run:\nwarm: %+v\ncold: %+v", warm.stats, cold.stats)
					}
					if !reflect.DeepEqual(warm.events, cold.events) {
						t.Errorf("events diverge from the cold-store run (%d vs %d events)", len(warm.events), len(cold.events))
					}
					if warm.state != cold.state || warm.digest != cold.digest {
						t.Error("final registers or memory digest diverge from the cold-store run")
					}
					// A poison draw forces a fresh job over any store, as it
					// did in the cold run.
					var poisoned int64
					if sys.inj != nil {
						poisoned = sys.inj.Counts().PoisonedResults
					}
					switch got := runs.Load(); {
					case tc.saved > 0:
						if got != coldRuns-tc.saved {
							t.Errorf("%d pipeline runs over a store warmed by %s, want %d (%d cold)", got, tc.warm, coldRuns-tc.saved, coldRuns)
						}
					case got > poisoned || got >= coldRuns:
						t.Errorf("%d pipeline runs over a warm store, want at most the %d poison draws (%d cold)", got, poisoned, coldRuns)
					}
					if tc.warm != tc.run && arm.chaos == (faultinject.Config{}) {
						foreign := 0
						for e, de := range sys.disp {
							if de.code != nil && de.code.out.in.sb != sys.recordOf(e).sb {
								foreign++
							}
						}
						if foreign == 0 {
							t.Errorf("no installed code was built from %s's superblock", tc.warm)
						}
					}
				})
			}
		}
	}
}

// TestWarmStoreRunAllocs pins what the store saves the host: New+Run of a
// figure program allocates at least 2 times fewer over a store that holds
// its builds than over an empty one.
func TestWarmStoreRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	bm := mustBenchmark(t, "swim")
	useStore(t, outputStoreBytes)
	run := func() {
		sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), ConfigSMARQ(64))
		if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
			t.Fatalf("halted=%v err=%v", halted, err)
		}
	}
	run() // warm the store and the pools
	warm := testing.AllocsPerRun(10, run)
	cold := testing.AllocsPerRun(10, func() {
		outputStore = newOutputStore(outputStoreBytes)
		run()
	})
	if cold < 2*warm {
		t.Errorf("New+Run allocates %v times over a warm store, %v over an empty one: want at least 2 times fewer", warm, cold)
	}
}

// TestStoreAdmitsOnlyScreenedOutputs: an output hit by a worker panic, a
// poison (checksum or structure) or a pipeline error never enters the
// store, inline and queued alike. Over a store that holds the input's
// clean build, the drawn fault forces a fresh job, and the stored output
// stays stored, unchanged: a stored output is never handed to Corrupt.
func TestStoreAdmitsOnlyScreenedOutputs(t *testing.T) {
	errUnschedulable := errors.New("unschedulable")
	for _, tc := range []struct {
		name  string
		chaos faultinject.Config
		skip  uint32 // the region's poison ordinal (the mode alternates checksum, structure)
		fails bool   // the pipeline returns an error
	}{
		{"panic", faultinject.Config{Seed: 1, WorkerPanicRate: 1}, 0, false},
		{"poison-checksum", faultinject.Config{Seed: 1, PoisonResultRate: 1}, 0, false},
		{"poison-structure", faultinject.Config{Seed: 1, PoisonResultRate: 1}, 1, false},
		{"pipeline-error", faultinject.Config{}, 0, true},
	} {
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/workers%d", tc.name, workers), func(t *testing.T) {
				useStore(t, outputStoreBytes)
				sys, e := installedSystem(t, workers)
				stored := sys.disp[e].code.out
				recompile := func() {
					sys.inj = faultinject.New(tc.chaos)
					sys.disp[e].rec.quarantined = false // a worker panic quarantines
					sys.disp[e].rec.draws = &faultinject.Ordinals{faultinject.PoisonResult: tc.skip}
					failed := sys.Stats.Compile.Failed
					sys.recompileRegion(e, !sys.installsAtRequest())
					if !sys.installsAtRequest() {
						settle(t, sys, e)
					}
					if sys.Stats.Compile.Failed != failed+1 {
						t.Fatalf("Compile.Failed %d, want %d: the faulted output was admitted", sys.Stats.Compile.Failed, failed+1)
					}
				}

				if !tc.fails {
					entries := outputStore.Stats().Entries
					recompile()
					if out, ok := outputStore.Peek(stored.in.key); !ok || out != stored {
						t.Error("a faulted compile replaced the stored output")
					}
					if stored.cr.Checksum() != stored.checksum || stored.cr.Validate() != nil {
						t.Error("the stored output was corrupted")
					}
					if got := outputStore.Stats().Entries; got != entries {
						t.Errorf("the store holds %d outputs, want %d", got, entries)
					}
				}

				if tc.fails {
					swapPipeline(t, func(out *compileOutput) *compileOutput {
						out.err = errUnschedulable
						return out
					})
				} else {
					useStore(t, outputStoreBytes)
				}
				recompile()
				if st := outputStore.Stats(); st.Entries != 0 {
					t.Errorf("a faulted output entered the empty store: %+v", st)
				}
			})
		}
	}
}

// TestStoreBudgetEvictsLRU: under a byte budget the store evicts its least
// recently used outputs, a store hit counting as a use, and never holds
// more than the budget. The region's builds at three tiers, each other
// code, size the budget so that exactly the LRU build must go; a request
// for an evicted build runs the pipeline again.
func TestStoreBudgetEvictsLRU(t *testing.T) {
	runs := countPipelineRuns(t)
	sys, e := tieredSystem(t)
	rr := sys.disp[e].rec
	build := func(tier Tier) *compileOutput {
		rr.Level = tier
		sys.recompileRegion(e, true)
		return sys.disp[e].code.out
	}
	full, nsr, cons := build(TierFull), build(TierNoStoreReorder), build(TierConservative)
	a, b, c := storedOutputBytes(full), storedOutputBytes(nsr), storedOutputBytes(cons)
	budget := a + b + c - min(a, b, c) // holds any two of the three builds, never all three
	if sf, sn, sc := full.cr.Checksum(), nsr.cr.Checksum(), cons.cr.Checksum(); sf == sn || sn == sc || sf == sc {
		t.Fatal("two tiers compile to the same code")
	}

	useStore(t, budget)
	runs.Store(0)
	stored := func(out *compileOutput) bool {
		_, ok := outputStore.Peek(out.in.key)
		return ok
	}
	check := func(step string, wantRuns int64, want ...bool) {
		t.Helper()
		if st := outputStore.Stats(); st.Bytes > budget {
			t.Errorf("%s: the store holds %d bytes over its budget of %d", step, st.Bytes, budget)
		}
		if runs.Load() != wantRuns {
			t.Errorf("%s: %d pipeline runs, want %d", step, runs.Load(), wantRuns)
		}
		if got := []bool{stored(full), stored(nsr), stored(cons)}; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: full, no-store-reorder, conservative stored %v, want %v", step, got, want)
		}
	}
	build(TierFull)
	build(TierNoStoreReorder)
	build(TierFull) // a hit: the full build is now the most recently used
	check("two builds", 2, true, true, false)
	build(TierConservative)
	check("third build", 3, true, false, true)
	build(TierNoStoreReorder)
	check("evicted build", 4, false, true, true)
	if got := outputStore.Stats().Evictions; got != 2 {
		t.Errorf("%d evictions, want 2", got)
	}
}

// TestConcurrentStoreCompiles runs 4 Systems of one program at once over
// an empty output store, so they request the same keys concurrently, at
// workers 0 and 2. The store single-flights every build: each key runs
// the pipeline exactly once across the 4 Systems, and each System must
// end bit-exact against the guest.Exec reference. Run it with -race.
func TestConcurrentStoreCompiles(t *testing.T) {
	for _, name := range []string{"swim", "ammp"} {
		bm := mustBenchmark(t, name)
		ref := interp.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize))
		ref.Ref = true
		if halted, err := ref.Run(0, bm.MaxInsts); err != nil || !halted {
			t.Fatalf("%s reference: halted=%v err=%v", name, halted, err)
		}
		for _, workers := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/workers%d", name, workers), func(t *testing.T) {
				var mu sync.Mutex
				compiled := map[compileKey]int{}
				swapPipeline(t, func(out *compileOutput) *compileOutput {
					mu.Lock()
					compiled[out.in.key]++
					mu.Unlock()
					return runCompilePipeline(out, nil)
				})
				cfg := ConfigSMARQ(64)
				cfg.Compile.Workers = workers
				systems := make([]*System, 4)
				errs := make([]error, len(systems))
				var wg sync.WaitGroup
				for i := range systems {
					systems[i] = New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
					wg.Add(1)
					go func() {
						defer wg.Done()
						_, errs[i] = systems[i].Run(bm.MaxInsts)
					}()
				}
				wg.Wait()
				for i, sys := range systems {
					if errs[i] != nil {
						t.Fatalf("system %d: %v", i, errs[i])
					}
					if *sys.State() != *ref.St || sys.Mem().Digest() != ref.Mem.Digest() {
						t.Errorf("system %d: final state differs from the reference", i)
					}
					if sys.Stats.Commits == 0 {
						t.Errorf("system %d never committed a region", i)
					}
				}
				if len(compiled) == 0 {
					t.Fatal("the Systems compiled nothing")
				}
				for _, n := range compiled {
					if n != 1 {
						t.Errorf("a key ran the pipeline %d times across the Systems, want once", n)
					}
				}
				if st := outputStore.Stats(); st.Compiles != int64(len(compiled)) {
					t.Errorf("the store elected %d leaders for %d distinct keys", st.Compiles, len(compiled))
				}
			})
		}
	}
}
