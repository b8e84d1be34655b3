package dynopt

import (
	"testing"

	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/sched"
)

// sumLoopProgram: sums array A into a scalar, writing partial sums to B.
// Disjoint arrays at 1024 (A) and 8192 (B); n iterations.
func sumLoopProgram(n int64) *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock() // B0: init
	b.Li(1, 1024)
	b.Li(2, 8192)
	b.Li(3, 0) // i
	b.Li(4, n)
	b.Li(5, 0) // sum
	// Fill A[i] = i.
	init := b.NewBlock()
	b.Muli(6, 3, 8)
	b.Add(7, 1, 6)
	b.St8(7, 0, 3)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, init)
	b.NewBlock()
	b.Li(3, 0)
	loop := b.NewBlock() // the hot loop
	b.Muli(6, 3, 8)
	b.Add(7, 1, 6)
	b.Ld8(8, 7, 0) // load A[i]
	b.Add(5, 5, 8)
	b.Add(9, 2, 6)
	b.St8(9, 0, 5) // store partial sum to B[i]
	b.Ld8(10, 7, 0)
	b.Add(5, 5, 10) // reuse A[i] (load elimination fodder)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// aliasingProgram writes through two pointers that collide every k-th
// iteration, so speculation genuinely traps sometimes.
func aliasingProgram(n, k int64) *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 1024) // p
	b.Li(2, 2048) // q, sometimes rebound to p
	b.Li(3, 0)
	b.Li(4, n)
	b.Li(11, k)
	loop := b.NewBlock()
	// q = (i % k == 0) ? p+offset : q0 — computed branchlessly: every k-th
	// iteration q collides with p's slot.
	b.Div(12, 3, 11)
	b.Mul(13, 12, 11)
	b.Sub(14, 3, 13) // i % k
	b.Li(2, 2048)
	b.Bne(14, 0, loop+1)
	b.NewBlock() // collide block
	b.Mov(2, 1)
	b.NewBlock()   // body
	b.St8(1, 0, 3) // store [p]
	b.Ld8(5, 2, 0) // load [q] — may alias, usually not
	b.Addi(6, 5, 1)
	b.St8(2, 8, 6)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// runBoth runs the program under the system, over an empty output store,
// and under pure interpretation, returning both final states for
// comparison.
func runBoth(t *testing.T, prog *guest.Program, cfg Config, memSize int) (*System, *interp.Interpreter) {
	t.Helper()
	useStore(t, outputStoreBytes)
	sys := New(prog, &guest.State{}, guest.NewMemory(memSize), cfg)
	halted, err := sys.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !halted {
		t.Fatal("system run did not halt")
	}
	ref := interp.New(prog, &guest.State{}, guest.NewMemory(memSize))
	rh, err := ref.Run(0, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rh {
		t.Fatal("reference run did not halt")
	}
	return sys, ref
}

func assertSameState(t *testing.T, sys *System, ref *interp.Interpreter, memSize int) {
	t.Helper()
	for r := 0; r < guest.NumRegs; r++ {
		if sys.State().R[r] != ref.St.R[r] {
			t.Errorf("r%d = %d, interpreter got %d", r, sys.State().R[r], ref.St.R[r])
		}
		if sys.State().F[r] != ref.St.F[r] {
			t.Errorf("f%d = %v, interpreter got %v", r, sys.State().F[r], ref.St.F[r])
		}
	}
	for a := 0; a < memSize; a += 8 {
		got, _ := sys.Mem().Load(uint64(a), 8)
		want, _ := ref.Mem.Load(uint64(a), 8)
		if got != want {
			t.Fatalf("mem[%d] = %d, interpreter got %d", a, got, want)
		}
	}
}

func allConfigs() map[string]Config {
	return map[string]Config{
		"smarq64":        ConfigSMARQ(64),
		"smarq16":        ConfigSMARQ(16),
		"smarq8":         ConfigSMARQ(8),
		"alat":           ConfigALAT(),
		"efficeon":       ConfigEfficeon(),
		"nohw":           ConfigNoHW(),
		"nostorereorder": ConfigNoStoreReorder(),
	}
}

// TestDifferentialCorrectness is the system's primary guarantee: under
// every hardware configuration the optimized execution computes exactly
// what the interpreter computes.
func TestDifferentialCorrectness(t *testing.T) {
	for name, cfg := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			prog := sumLoopProgram(400)
			sys, ref := runBoth(t, prog, cfg, 16384)
			assertSameState(t, sys, ref, 16384)
			if sys.Stats.Commits == 0 {
				t.Error("no region ever committed — system stayed in the interpreter")
			}
		})
	}
}

// TestDifferentialWithRealAliasing runs a program whose speculation is
// periodically wrong, exercising exception -> blacklist -> re-optimize.
func TestDifferentialWithRealAliasing(t *testing.T) {
	for name, cfg := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			prog := aliasingProgram(3000, 7)
			sys, ref := runBoth(t, prog, cfg, 16384)
			assertSameState(t, sys, ref, 16384)
		})
	}
}

func TestAliasExceptionTriggersReoptimization(t *testing.T) {
	prog := aliasingProgram(3000, 7)
	sys, _ := runBoth(t, prog, ConfigSMARQ(64), 16384)
	if sys.Stats.AliasExceptions == 0 {
		t.Skip("speculation never trapped (scheduler did not reorder the colliding pair)")
	}
	if sys.Stats.Recompiles == 0 {
		t.Error("alias exceptions without conservative re-optimization")
	}
	// Blacklisting must converge: exceptions far fewer than iterations.
	if sys.Stats.AliasExceptions > 50 {
		t.Errorf("%d alias exceptions for 3000 iterations: blacklist not converging", sys.Stats.AliasExceptions)
	}
}

func TestSpeedupOrdering(t *testing.T) {
	// The headline result shape (Figure 15): SMARQ64 beats no-HW on a
	// workload with speculation opportunities.
	prog64 := sumLoopProgram(2000)
	sys64, _ := runBoth(t, prog64, ConfigSMARQ(64), 32768)
	progNo := sumLoopProgram(2000)
	sysNo, _ := runBoth(t, progNo, ConfigNoHW(), 32768)
	if sys64.Stats.TotalCycles >= sysNo.Stats.TotalCycles {
		t.Errorf("SMARQ64 (%d cycles) not faster than no-HW (%d cycles)",
			sys64.Stats.TotalCycles, sysNo.Stats.TotalCycles)
	}
}

func TestGuardFailHandling(t *testing.T) {
	// A short loop: the final iteration always fails the loop-back guard.
	prog := sumLoopProgram(500)
	sys, ref := runBoth(t, prog, ConfigSMARQ(64), 16384)
	assertSameState(t, sys, ref, 16384)
	if sys.Stats.GuardFails == 0 {
		t.Error("loop exit never failed a guard — trace formation suspicious")
	}
}

func TestStatsAccounting(t *testing.T) {
	prog := sumLoopProgram(500)
	sys, _ := runBoth(t, prog, ConfigSMARQ(64), 16384)
	s := &sys.Stats
	if s.TotalCycles != s.InterpCycles+s.RegionCycles+s.RollbackCycles+s.OptCycles+s.SchedCycles {
		t.Error("cycle breakdown does not sum to total")
	}
	if s.RegionsCompiled == 0 || len(s.Regions) == 0 {
		t.Error("no regions compiled")
	}
	if s.GuestInsts == 0 || s.InterpretedInsts == 0 {
		t.Error("instruction accounting empty")
	}
	if s.GuestInsts < s.InterpretedInsts {
		t.Error("interpreted insts exceed total")
	}
	for _, r := range s.Regions {
		if r.MemOps == 0 && r.Alloc.PBits > 0 {
			t.Errorf("region B%d: P bits without memory ops", r.Entry)
		}
		if r.Working.SMARQ < r.Working.LowerBound {
			t.Errorf("region B%d: working set below lower bound", r.Entry)
		}
		if r.Cycles <= 0 {
			t.Errorf("region B%d: nonpositive cycle count", r.Entry)
		}
	}
}

func TestSmallRegisterFileStillCorrect(t *testing.T) {
	// 4 registers: the scheduler must throttle but never miscompute.
	cfg := ConfigSMARQ(4)
	prog := sumLoopProgram(400)
	sys, ref := runBoth(t, prog, cfg, 16384)
	assertSameState(t, sys, ref, 16384)
	for _, r := range sys.Stats.Regions {
		if r.Working.SMARQ > 4 {
			t.Errorf("region B%d: working set %d with 4 registers", r.Entry, r.Working.SMARQ)
		}
	}
}

func TestColdProgramNeverCompiles(t *testing.T) {
	prog := sumLoopProgram(5) // too few iterations to get hot
	cfg := ConfigSMARQ(64)
	cfg.HotThreshold = 1000
	sys := New(prog, &guest.State{}, guest.NewMemory(16384), cfg)
	halted, err := sys.Run(10_000_000)
	if err != nil || !halted {
		t.Fatalf("run: halted=%v err=%v", halted, err)
	}
	if sys.Stats.RegionsCompiled != 0 {
		t.Error("cold program compiled a region")
	}
	if sys.Stats.InterpCycles == 0 {
		t.Error("no interpreter cycles recorded")
	}
}

func TestBudgetStopsRun(t *testing.T) {
	prog := sumLoopProgram(1_000_000)
	sys := New(prog, &guest.State{}, guest.NewMemory(1<<23), ConfigSMARQ(64))
	halted, err := sys.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if halted {
		t.Error("halted despite tiny budget")
	}
	if sys.Stats.GuestInsts < 20_000 {
		t.Errorf("retired %d insts, want >= 20000", sys.Stats.GuestInsts)
	}
}

func TestPresetConfigs(t *testing.T) {
	if c := ConfigSMARQ(16); c.NumAliasRegs != 16 || c.Mode != sched.HWOrdered {
		t.Error("ConfigSMARQ wrong")
	}
	if c := ConfigALAT(); c.Mode != sched.HWALAT {
		t.Error("ConfigALAT wrong")
	}
	if c := ConfigNoHW(); c.Mode != sched.HWNone {
		t.Error("ConfigNoHW wrong")
	}
	if c := ConfigNoStoreReorder(); c.StoreReorder {
		t.Error("ConfigNoStoreReorder wrong")
	}
}

// TestDifferentialWithUnrolling: larger, loop-unrolled regions must stay
// exactly correct, including the partial-final-iteration case (the loop
// count is not a multiple of the unroll factor, so the last region entry
// fails a mid-region guard and rolls back to the interpreter).
func TestDifferentialWithUnrolling(t *testing.T) {
	for _, unroll := range []int{2, 3, 4} {
		cfg := ConfigSMARQ(64)
		cfg.Region.Unroll = unroll
		prog := sumLoopProgram(401) // 401 % {2,3,4} != 0
		sys, ref := runBoth(t, prog, cfg, 16384)
		assertSameState(t, sys, ref, 16384)
		if sys.Stats.Commits == 0 {
			t.Fatalf("unroll %d: no commits", unroll)
		}
		// The unrolled region retires more guest insts per commit: the
		// main loop body is 10 guest instructions, so any region covering
		// at least two iterations proves the unroll took effect.
		found := 0
		for _, r := range sys.Stats.Regions {
			if r.GuestInsts >= 20 {
				found = r.GuestInsts
			}
		}
		if found == 0 {
			t.Errorf("unroll %d: no enlarged region found", unroll)
		}
	}
}

// TestUnrollingRaisesRegisterPressure: the unrolled region allocates more
// alias registers (the §6.1 "larger regions" effect).
func TestUnrollingRaisesRegisterPressure(t *testing.T) {
	maxWS := func(unroll int) int {
		cfg := ConfigSMARQ(64)
		cfg.Region.Unroll = unroll
		prog := sumLoopProgram(2000)
		sys := New(prog, &guest.State{}, guest.NewMemory(32768), cfg)
		if _, err := sys.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		ws := 0
		for _, r := range sys.Stats.Regions {
			if r.Alloc.WorkingSet > ws {
				ws = r.Alloc.WorkingSet
			}
		}
		return ws
	}
	w1, w4 := maxWS(1), maxWS(4)
	if w4 <= w1 {
		t.Errorf("working set did not grow with unrolling: %d (x1) vs %d (x4)", w1, w4)
	}
}

// TestOverflowRetryPath: a 2-register file forces alias register overflow
// during compilation; the system must retreat (ForceNonSpec, then no
// eliminations) and stay correct.
func TestOverflowRetryPath(t *testing.T) {
	cfg := ConfigSMARQ(2)
	cfg.Region.Unroll = 2 // raise pressure further
	prog := sumLoopProgram(400)
	sys, ref := runBoth(t, prog, cfg, 16384)
	assertSameState(t, sys, ref, 16384)
	for _, r := range sys.Stats.Regions {
		if r.Alloc.WorkingSet > 2 {
			t.Errorf("region B%d working set %d with 2 registers", r.Entry, r.Alloc.WorkingSet)
		}
	}
}

// TestEfficeonEncodingWall: ammp's ~50-memory-op superblocks exceed what
// 15 named registers can protect, so the true bit-mask model must throttle
// (and still run correctly, which TestSuiteDifferential already checks).
func TestEfficeonEncodingWall(t *testing.T) {
	// Local miniature of ammp: one block with 20 interleaved may-alias
	// load/store pairs.
	b := guest.NewBuilder()
	b.NewBlock()
	for i := 0; i < 20; i++ {
		b.Li(guest.Reg(1+i%8), int64(1024+i*512))
	}
	b.Li(30, 0)
	b.Li(29, 600)
	loop := b.NewBlock()
	for i := 0; i < 10; i++ {
		b.St8(guest.Reg(1+i%8), int64(i*16), 28)
		b.Ld8(27, guest.Reg(1+(i+3)%8), int64(i*16+8))
	}
	b.Addi(30, 30, 1)
	b.Blt(30, 29, loop)
	b.NewBlock()
	b.Halt()
	prog := b.MustProgram()

	sys := New(prog, &guest.State{}, guest.NewMemory(1<<16), ConfigEfficeon())
	halted, err := sys.Run(10_000_000)
	if err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	for _, r := range sys.Stats.Regions {
		if r.Alloc.WorkingSet > 15 {
			t.Errorf("region B%d working set %d beyond the 15-register encoding cap",
				r.Entry, r.Alloc.WorkingSet)
		}
	}
}

// speculativeFaultProgram: the hot loop's exit guard comes FIRST in
// program order and the load second, so the architectural execution never
// touches memory out of bounds — but the speculative schedule hoists the
// load above the guard, and on the final region entry the hoisted load
// reads one element past the array. The region must fault, roll back, and
// the interpreter must exit the loop cleanly.
func speculativeFaultProgram(n int64, memSize int) *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock()                // B0
	b.Li(2, int64(memSize)-8*n) // base: the last valid element is memSize-8
	b.Li(3, 0)
	b.Li(4, n)
	b.Jmp(1)
	b.NewBlock() // B1: loop head — the exit guard comes first
	b.Bge(3, 4, 3)
	b.NewBlock() // B2: body — load second
	b.Ld8(5, 2, 0)
	b.Addi(6, 5, 1) // consumer chain raises the load's priority
	b.Muli(6, 6, 3)
	b.Add(7, 7, 6)
	b.Addi(2, 2, 8)
	b.Addi(3, 3, 1)
	b.Jmp(1)
	b.NewBlock() // B3: exit (fallthrough of B1's blt)
	b.Halt()
	return b.MustProgram()
}

func TestSpeculationInducedFault(t *testing.T) {
	const memSize = 1 << 12
	prog := speculativeFaultProgram(300, memSize)
	sys, ref := runBoth(t, prog, ConfigSMARQ(64), memSize)
	assertSameState(t, sys, ref, memSize)
	if sys.Stats.Faults == 0 {
		t.Skip("scheduler did not hoist the load above the exit guard")
	}
	// The faults were speculation-induced and absorbed: the run completed
	// with the interpreter's exact result (asserted above).
	t.Logf("%d speculation-induced faults absorbed by rollback", sys.Stats.Faults)
}

// TestGenuineGuestFaultSurfaces: an architecturally faulting program must
// report its fault even when the fault is first hit inside a region and
// re-executed by the interpreter after rollback.
func TestGenuineGuestFaultSurfaces(t *testing.T) {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(2, 0)
	b.Li(3, 0)
	b.Li(4, 100000)
	loop := b.NewBlock()
	b.Ld8(5, 2, 0) // faults once r2 walks past the end
	b.Addi(2, 2, 8)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	prog := b.MustProgram()

	sys := New(prog, &guest.State{}, guest.NewMemory(1<<12), ConfigSMARQ(64))
	halted, err := sys.Run(50_000_000)
	if err == nil {
		t.Fatalf("genuine guest fault not surfaced (halted=%v)", halted)
	}
}

// TestInterpretedFaultCountedInStats: when a block Run interprets faults,
// the instructions it retired before the fault are still counted into
// Stats, and the error is the reference interpreter's, unchanged.
func TestInterpretedFaultCountedInStats(t *testing.T) {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 1<<40) // out of range
	b.Li(2, 7)
	b.Addi(3, 1, 8)
	b.Ld8(4, 3, 0) // faults
	b.Halt()
	prog := b.MustProgram()

	ref := interp.New(prog, &guest.State{}, guest.NewMemory(256))
	ref.Ref = true
	_, refErr := ref.Run(prog.Entry, 1_000)
	if refErr == nil || ref.DynInsts != 3 {
		t.Fatalf("reference: err=%v DynInsts=%d, want a fault after 3", refErr, ref.DynInsts)
	}

	sys := New(prog, &guest.State{}, guest.NewMemory(256), ConfigSMARQ(64))
	halted, err := sys.Run(1_000)
	if err == nil || halted {
		t.Fatalf("halted=%v err=%v, want the guest fault", halted, err)
	}
	if err.Error() != refErr.Error() {
		t.Errorf("err %q, reference %q", err, refErr)
	}
	s := &sys.Stats
	if want := int64(ref.DynInsts); s.InterpretedInsts != want || s.GuestInsts != want {
		t.Errorf("InterpretedInsts=%d GuestInsts=%d, want both %d", s.InterpretedInsts, s.GuestInsts, want)
	}
	if want := int64(ref.DynInsts) * int64(sys.cfg.Machine.InterpCyclesPerInst); s.InterpCycles != want {
		t.Errorf("InterpCycles=%d, want %d", s.InterpCycles, want)
	}
}

// TestDifferentialWithAblations: every ablated system must remain exactly
// correct — the no-anti ablation in particular leans on rollback +
// conservative re-optimization to absorb its false positives.
func TestDifferentialWithAblations(t *testing.T) {
	ablations := map[string]Ablation{
		"no-anti":     {Anti: true},
		"no-rotation": {Rotation: true},
		"no-elim":     {Elim: true},
		"all-off":     {Anti: true, Rotation: true, Elim: true},
	}
	for name, ab := range ablations {
		t.Run(name, func(t *testing.T) {
			cfg := ConfigSMARQ(64)
			cfg.Ablation = ab
			prog := sumLoopProgram(400)
			sys, ref := runBoth(t, prog, cfg, 16384)
			assertSameState(t, sys, ref, 16384)

			cfg16 := ConfigSMARQ(16)
			cfg16.Ablation = ab
			prog2 := aliasingProgram(2000, 7)
			sys2, ref2 := runBoth(t, prog2, cfg16, 16384)
			assertSameState(t, sys2, ref2, 16384)
			_ = sys2
			_ = sys
		})
	}
}
