package dynopt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smarq/internal/aliashw"
	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/sched"
	"smarq/internal/telemetry"
	"smarq/internal/vliw"
)

// figureConfigs are the six configurations the figure harness runs every
// benchmark under.
func figureConfigs() map[string]Config {
	return map[string]Config{
		"smarq64":        ConfigSMARQ(64),
		"smarq16":        ConfigSMARQ(16),
		"alat":           ConfigALAT(),
		"efficeon":       ConfigEfficeon(),
		"nohw":           ConfigNoHW(),
		"nostorereorder": ConfigNoStoreReorder(),
	}
}

// runResult is everything a run leaves observable: its Stats, the final
// architectural state and the memory digest.
type runResult struct {
	stats  Stats
	state  guest.State
	digest uint64
}

// entryAliasLoopProgram is entryLoopProgram's shape — the loop body is
// the entry block and every register it reads is set in it or starts at
// zero — with a load the scheduler hoists above a may-alias store, so the
// alias hardware checks on every iteration. The load's base comes from
// memory that nothing writes, which keeps the pair unprovable.
func entryAliasLoopProgram(n int64) *guest.Program {
	b := guest.NewBuilder()
	loop := b.NewBlock()
	b.Li(10, 16)
	b.Ld8(2, 10, 0) // 0: mem[16] is never written
	b.Addi(2, 2, 4096)
	b.Li(1, 1024)
	b.Muli(6, 3, 8)
	b.Add(7, 1, 6) // p
	b.Add(9, 2, 6) // q
	b.Ld8(11, 7, 0)
	b.Mul(12, 11, 11)
	b.Add(5, 5, 12)
	b.Addi(5, 5, 3)
	b.St8(7, 0, 5) // [p]: its data is late
	b.Ld8(8, 9, 0) // [q]: its address is early
	b.Add(5, 5, 8)
	b.Addi(3, 3, 1)
	b.Li(4, n)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// TestSplitRunMatchesOneRun: a run cut into k budget slices, each a
// separate Run that borrows and returns its own executor scratch, is the
// same run as one uninterrupted Run — Stats (HWChecks included), final
// state and memory digest. The entry-loop programs' budget stops land on
// the program entry; the resume cases' land inside the loop, so each Run
// must continue where the last one stopped.
func TestSplitRunMatchesOneRun(t *testing.T) {
	progs := map[string]*guest.Program{
		"entry-loop":       entryLoopProgram(4000),
		"entry-alias-loop": entryAliasLoopProgram(4000),
	}
	for name, base := range figureConfigs() {
		for pname, prog := range progs {
			for _, workers := range []int{0, 2} {
				t.Run(fmt.Sprintf("%s/%s/workers%d", name, pname, workers), func(t *testing.T) {
					cfg := base
					cfg.Compile.Workers = workers
					run := func(budgets ...uint64) runResult {
						useStore(t, outputStoreBytes) // each run compiles, on the pool when queued
						sys := New(prog, &guest.State{}, guest.NewMemory(1<<16), cfg)
						for _, b := range budgets {
							if _, err := sys.Run(b); err != nil {
								t.Fatal(err)
							}
						}
						if sys.x != nil {
							t.Fatal("Run returned with the executor scratch still borrowed")
						}
						return runResult{sys.Stats, *sys.State(), sys.Mem().Digest()}
					}
					whole := run(50_000_000)
					if whole.stats.Commits == 0 {
						t.Fatalf("no region committed: %+v", whole.stats)
					}
					if pname == "entry-alias-loop" && cfg.Mode != sched.HWNone && whole.stats.HWChecks == 0 {
						t.Fatalf("the alias hardware never checked: %+v", whole.stats)
					}
					total := uint64(whole.stats.GuestInsts)
					for _, k := range []uint64{1, 3, 17} {
						var budgets []uint64
						for i := uint64(1); i < k; i++ {
							budgets = append(budgets, total*i/k)
						}
						got := run(append(budgets, 50_000_000)...)
						if !reflect.DeepEqual(got, whole) {
							t.Errorf("%d slices differ from one Run:\n got %+v\nwant %+v", k, got, whole)
						}
					}
				})
			}
		}
	}

	// The resume cases: 500-instruction slices of a program whose loop
	// head is not its entry. Inline, the slices are the one Run; queued,
	// a budget stop cancels pending compiles, so only the guest result is
	// the one Run's.
	const memSize = 1 << 16
	prog := aliasingProgram(2500, 7)
	ref := interp.New(prog, &guest.State{}, guest.NewMemory(memSize))
	ref.Ref = true
	if halted, err := ref.Run(0, 50_000_000); err != nil || !halted {
		t.Fatalf("reference: halted=%v err=%v", halted, err)
	}
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("resume/workers%d", workers), func(t *testing.T) {
			cfg := ConfigSMARQ(64)
			cfg.Compile.Workers = workers
			useStore(t, outputStoreBytes) // the slices compile, on the pool when queued
			sys := New(prog, &guest.State{}, guest.NewMemory(memSize), cfg)
			offEntry := 0
			budget := uint64(0)
			for halted := false; !halted; {
				if budget += 500; budget > 1_000_000 {
					t.Fatalf("500-instruction slices did not halt within %d instructions", budget-500)
				}
				var err error
				if halted, err = sys.Run(budget); err != nil {
					t.Fatal(err)
				}
				if !halted && sys.resume != prog.Entry {
					offEntry++
				}
			}
			if offEntry == 0 {
				t.Fatal("no budget stop landed off the program entry")
			}
			before := sys.Stats
			if halted, err := sys.Run(budget + 500); !halted || err != nil {
				t.Fatalf("Run after the halt: halted=%v err=%v, want true, nil", halted, err)
			}
			if !reflect.DeepEqual(sys.Stats, before) {
				t.Errorf("Run after the halt changed Stats:\n got %+v\nwant %+v", sys.Stats, before)
			}
			got := runResult{sys.Stats, *sys.State(), sys.Mem().Digest()}
			if got.state != *ref.St || got.digest != ref.Mem.Digest() {
				t.Fatal("final state differs from the guest.Exec reference")
			}
			if workers > 0 {
				return
			}
			one := New(prog, &guest.State{}, guest.NewMemory(memSize), cfg)
			if _, err := one.Run(50_000_000); err != nil {
				t.Fatal(err)
			}
			if want := (runResult{one.Stats, *one.State(), one.Mem().Digest()}); !reflect.DeepEqual(got, want) {
				t.Errorf("slices differ from one Run:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestConcurrentBorrow runs Systems of mixed detector configurations
// concurrently, so they borrow from and return to the shared pools at
// the same time (run it under -race); each must end bit-exact against the
// guest.Exec reference and with the HWChecks of a solo run.
func TestConcurrentBorrow(t *testing.T) {
	cfgs := []Config{ConfigSMARQ(64), ConfigSMARQ(16), ConfigALAT(), ConfigEfficeon()}
	progs := []*guest.Program{aliasingProgram(3000, 7), sumLoopProgram(2000), aliasingProgram(2000, 5), sumLoopProgram(3000)}
	const memSize = 1 << 16
	budgets := []uint64{5_000, 20_000, 50_000_000}
	workers := func(i int) int { return i % 2 * 2 }
	solo := make([]uint64, len(cfgs))
	for i, cfg := range cfgs {
		cfg.Compile.Workers = workers(i)
		sys := New(progs[i], &guest.State{}, guest.NewMemory(memSize), cfg)
		for _, b := range budgets {
			if _, err := sys.Run(b); err != nil {
				t.Fatal(err)
			}
		}
		solo[i] = sys.Stats.HWChecks
	}
	for round := 0; round < 3; round++ {
		systems := make([]*System, len(cfgs))
		errs := make([]error, len(cfgs))
		var wg sync.WaitGroup
		for i, cfg := range cfgs {
			cfg.Compile.Workers = workers(i)
			systems[i] = New(progs[i], &guest.State{}, guest.NewMemory(memSize), cfg)
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Several Runs each, so loans interleave across Systems.
				for _, b := range budgets {
					if _, errs[i] = systems[i].Run(b); errs[i] != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		for i, sys := range systems {
			if errs[i] != nil {
				t.Fatalf("system %d: %v", i, errs[i])
			}
			ref := interp.New(progs[i], &guest.State{}, guest.NewMemory(memSize))
			ref.Ref = true
			if halted, err := ref.Run(0, 50_000_000); err != nil || !halted {
				t.Fatalf("reference %d: halted=%v err=%v", i, halted, err)
			}
			if *sys.State() != *ref.St || sys.Mem().Digest() != ref.Mem.Digest() {
				t.Errorf("round %d system %d (%v/%d): final state differs from the reference",
					round, i, cfgs[i].Mode, cfgs[i].NumAliasRegs)
			}
			if sys.Stats.Commits == 0 {
				t.Errorf("system %d never committed a region", i)
			}
			if sys.Stats.HWChecks != solo[i] {
				t.Errorf("round %d system %d: HWChecks %d, solo run %d", round, i, sys.Stats.HWChecks, solo[i])
			}
		}
	}
}

// TestHardwareOf: a System's regions are baked for the hardware its
// detector configuration names, which fixes that hardware: the ALAT and
// the null detector ignore the register count, and the bit mask caps it.
func TestHardwareOf(t *testing.T) {
	hw := func(cfg Config) aliashw.HW { return hwOf(cfg.Mode, cfg.NumAliasRegs) }
	alat, alat7 := ConfigALAT(), ConfigALAT()
	alat7.NumAliasRegs = 7
	bm15, bm40 := ConfigEfficeon(), ConfigEfficeon()
	bm40.NumAliasRegs = 40
	same := [][2]Config{{alat, alat7}, {bm15, bm40}, {ConfigSMARQ(64), ConfigNoStoreReorder()}}
	for _, p := range same {
		if a, b := hw(p[0]), hw(p[1]); a != b {
			t.Errorf("hardware %+v and %+v differ for the same detector", a, b)
		}
	}
	differ := [][2]Config{{ConfigSMARQ(64), ConfigSMARQ(16)}, {ConfigSMARQ(15), bm15}, {alat, ConfigNoHW()}}
	for _, p := range differ {
		if a, b := hw(p[0]), hw(p[1]); a == b {
			t.Errorf("configs %v/%d and %v/%d share hardware %+v", p[0].Mode, p[0].NumAliasRegs, p[1].Mode, p[1].NumAliasRegs, a)
		}
	}
	for det, cfg := range map[aliashw.Detector]Config{
		aliashw.NewOrderedQueue(64): ConfigSMARQ(64), aliashw.NewOrderedQueue(16): ConfigSMARQ(16),
		aliashw.NewALAT(): alat, aliashw.NewBitmask(40): bm40, aliashw.None{}: ConfigNoHW(),
	} {
		if got := hw(cfg); got != det.HW() {
			t.Errorf("%v/%d: hardware %+v, want %s's %+v", cfg.Mode, cfg.NumAliasRegs, got, det.Name(), det.HW())
		}
	}
}

// TestRegionStatsPublishedOnce: Run stages Stats.Regions in its borrowed
// scratch and publishes them once, at their exact length; a Run that adds
// no region writes into the published array instead of replacing it. The
// entries are in first-install order, each holding its region's latest
// install, as the compile events report them.
func TestRegionStatsPublishedOnce(t *testing.T) {
	bm := mustBenchmark(t, "ammp")
	sink := &captureSink{}
	cfg := ConfigSMARQ(64)
	cfg.Telemetry = &telemetry.Telemetry{Events: telemetry.NewTracer(0, sink)}
	sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if err := cfg.Telemetry.Tracer().Flush(); err != nil {
		t.Fatal(err)
	}
	regions := sys.Stats.Regions
	if len(regions) == 0 || len(regions) != cap(regions) {
		t.Fatalf("Stats.Regions has length %d and capacity %d, want equal and nonzero", len(regions), cap(regions))
	}

	var order []int
	latest := map[int]telemetry.Event{}
	for _, ev := range sink.events {
		if ev.Kind != telemetry.KindCompile {
			continue
		}
		if _, seen := latest[int(ev.Region)]; !seen {
			order = append(order, int(ev.Region))
		}
		latest[int(ev.Region)] = ev
	}
	if sys.Stats.Recompiles == 0 {
		t.Fatal("no region was recompiled, so no entry is overwritten")
	}
	if len(order) != len(regions) {
		t.Fatalf("%d regions installed, Stats.Regions holds %d", len(order), len(regions))
	}
	for i, rs := range regions {
		ev := latest[rs.Entry]
		if rs.Entry != order[i] {
			t.Fatalf("Stats.Regions[%d] is B%d, the %d-th first install is B%d", i, rs.Entry, i, order[i])
		}
		if int64(rs.SeqLen) != ev.A || int64(rs.GuestInsts) != ev.B || int64(rs.MemOps) != ev.C || rs.Cycles != ev.Cost {
			t.Errorf("Stats.Regions[%d] = %+v, not B%d's latest compile event %+v", i, rs, rs.Entry, ev)
		}
	}

	if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
		t.Fatalf("run after halt: halted=%v err=%v", halted, err)
	}
	if &sys.Stats.Regions[0] != &regions[0] || len(sys.Stats.Regions) != len(regions) {
		t.Error("a Run that installed nothing replaced the published Stats.Regions")
	}

	// A run cut in two: the second slice dispatches and re-publishes the
	// one region its first slice installed, in place.
	sys = New(entryLoopProgram(4000), &guest.State{}, guest.NewMemory(1<<16), ConfigSMARQ(64))
	if halted, err := sys.Run(8000); err != nil || halted || len(sys.Stats.Regions) != 1 {
		t.Fatalf("first slice: halted=%v err=%v, %d regions, want 1", halted, err, len(sys.Stats.Regions))
	}
	first := &sys.Stats.Regions[0]
	commits := sys.Stats.Commits
	if halted, err := sys.Run(50_000_000); err != nil || !halted {
		t.Fatalf("second slice: halted=%v err=%v", halted, err)
	}
	if sys.Stats.Commits == commits {
		t.Fatal("the second slice dispatched no region")
	}
	if len(sys.Stats.Regions) != 1 || &sys.Stats.Regions[0] != first {
		t.Error("a slice that added no region replaced the published Stats.Regions")
	}
}

// TestRegionStatsSurviveGuestFault: a guest fault in an interpreted block
// ends Run without finalize, and a later Run returns the fault at once;
// both still publish the region installed before the fault.
func TestRegionStatsSurviveGuestFault(t *testing.T) {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(3, 0)
	b.Li(4, 2000)
	loop := b.NewBlock()
	b.Ld8(5, 2, 0)
	b.Add(6, 6, 5)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Li(1, 1<<40) // out of range
	b.Ld8(7, 1, 0) // faults
	b.Halt()
	prog := b.MustProgram()

	sys := New(prog, &guest.State{}, guest.NewMemory(1<<12), ConfigSMARQ(64))
	for run := 1; run <= 2; run++ {
		halted, err := sys.Run(50_000_000)
		if err == nil || halted {
			t.Fatalf("run %d: halted=%v err=%v, want the guest fault", run, halted, err)
		}
		if sys.Stats.Commits == 0 {
			t.Fatal("no region committed before the fault")
		}
		if got := sys.Stats.Regions; len(got) != 1 || got[0].Entry != loop || got[0].SeqLen == 0 {
			t.Fatalf("run %d: Stats.Regions = %+v, want the loop region B%d", run, got, loop)
		}
	}
}

// lendExec borrows sys's executor scratch for a test that dispatches or
// installs regions outside Run, the way Run does, and returns it (which
// publishes the staged Stats.Regions) when the test ends.
func lendExec(t testing.TB, sys *System) {
	t.Helper()
	sys.borrowExec()
	t.Cleanup(sys.returnExec)
}

// TestScratchReturnedOnlyIdle: an idle scratch goes back to the pool and
// is lent again; one left mid-entry by a panic is dropped. The panic is a
// trap through a real alias: entryAliasLoopProgram's region, rebuilt and
// structurally corrupted (the first origin of its check list is a slot
// past the stream, which Validate exists to reject), commits while its
// load and store do not alias, since the granule sets skip the walk, and
// indexes out of range mid-entry once they do.
func TestScratchReturnedOnlyIdle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	sys := New(entryAliasLoopProgram(1_000_000), &guest.State{}, guest.NewMemory(1<<16), ConfigSMARQ(64))
	sys.scratchPool = &sync.Pool{New: func() any { return new(execScratch) }}
	if halted, err := sys.Run(10_000); err != nil || halted || sys.installed != 1 {
		t.Fatalf("warm-up: halted=%v err=%v, %d regions", halted, err, sys.installed)
	}
	entry := sys.resume
	c := sys.disp[entry].code
	if c == nil {
		t.Fatalf("the run stopped at B%d, which has no code", entry)
	}

	sys.borrowExec()
	idle := sys.x
	if next := sys.runRegion(entry, c); next != entry {
		t.Fatalf("warm dispatch left the loop: next=%d, want %d", next, entry)
	}
	sys.returnExec()
	sys.borrowExec()
	if sys.x != idle {
		t.Fatal("an idle scratch was not lent again")
	}

	bad := runCompilePipeline(&compileOutput{in: c.out.in}, nil).cr
	bad.Corrupt(true)
	if bad.Validate() == nil {
		t.Fatal("Validate accepts the corrupted region")
	}
	if res := sys.x.ctx.Run(bad, sys.st, sys.mem); res.Outcome != vliw.Commit {
		t.Fatalf("an entry without an alias ends %s, want commit", res.Outcome)
	}
	// q = mem[16] + 4096 + 8*i now meets p = 1024 + 8*i.
	q0 := int64(1024 - 4096)
	if err := sys.mem.Store(16, 8, uint64(q0)); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the aliasing entry did not trap")
			}
		}()
		defer sys.returnExec()
		sys.x.ctx.Run(bad, sys.st, sys.mem)
	}()
	if sys.x != nil {
		t.Fatal("the loan outlived the panic")
	}
	sys.borrowExec()
	defer sys.returnExec()
	if sys.x == idle {
		t.Fatal("a scratch left mid-entry was lent again")
	}
}

// TestWarmPoolRunAllocs pins what borrowing saves: with the pool warm, a
// new System's New+Run allocates no executor state. The same run over an
// empty pool of its own must allocate at least five more times: the
// scratch, the integer and float vreg files, the origin ranges, and the
// undo log's growth.
func TestWarmPoolRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	prog := commitLoopProgram(400)
	cfg := ConfigSMARQ(64)
	run := func(cold bool) {
		sys := New(prog, &guest.State{}, guest.NewMemory(1<<14), cfg)
		if cold {
			sys.scratchPool = &sync.Pool{New: func() any { return new(execScratch) }}
		}
		if halted, err := sys.Run(50_000_000); err != nil || !halted || sys.Stats.Commits == 0 {
			t.Fatalf("halted=%v err=%v commits=%d", halted, err, sys.Stats.Commits)
		}
	}
	run(false) // warm the pool
	warm := testing.AllocsPerRun(20, func() { run(false) })
	cold := testing.AllocsPerRun(20, func() { run(true) })
	if cold-warm < 5 {
		t.Errorf("New+Run allocates %v times with a warm pool, %v with an empty one: want at least 5 fewer", warm, cold)
	}

	// A warm borrow itself allocates nothing.
	sys := New(prog, &guest.State{}, guest.NewMemory(1<<14), cfg)
	if allocs := testing.AllocsPerRun(100, func() {
		sys.borrowExec()
		sys.returnExec()
	}); allocs != 0 {
		t.Errorf("a warm borrow allocates %v times, want 0", allocs)
	}
}

// TestPipelineBakesBeforeStamp: the code a System installs is baked for
// its alias hardware inside the pipeline, before the checksum stamp, so
// the stamp and the structural checks cover what runs, and a store hit
// hands back code that needs nothing more. It runs on its own hardware
// and refuses any other.
func TestPipelineBakesBeforeStamp(t *testing.T) {
	for name, cfg := range figureConfigs() {
		t.Run(name, func(t *testing.T) {
			useStore(t, outputStoreBytes)
			sys := New(aliasingProgram(800, 7), &guest.State{}, guest.NewMemory(1<<16), cfg)
			if halted, err := sys.Run(50_000_000); err != nil || !halted {
				t.Fatalf("halted=%v err=%v", halted, err)
			}
			own := hwOf(cfg.Mode, cfg.NumAliasRegs)
			other := aliashw.Detector(aliashw.NewOrderedQueue(7))
			checked := 0
			for e := range sys.disp {
				c := sys.disp[e].code
				if c == nil {
					continue
				}
				checked++
				out := c.out
				if out.checksum != out.cr.Checksum() || out.cr.Validate() != nil {
					t.Fatalf("B%d: the stamp does not cover the installed code", e)
				}
				st := *sys.st
				var ctx vliw.ExecContext
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("B%d: code baked for %+v ran on %s", e, own, other.Name())
						}
					}()
					ctx.Execute(out.cr, &st, guest.NewMemory(1<<16), other)
				}()
			}
			if checked == 0 {
				t.Fatal("no region installed")
			}
		})
	}
}
