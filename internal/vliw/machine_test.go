package vliw_test

import (
	"testing"

	"smarq/internal/alias"
	"smarq/internal/aliashw"
	"smarq/internal/deps"
	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/region"
	"smarq/internal/sched"
	"smarq/internal/vliw"
	"smarq/internal/xlate"
)

// compileGuest builds a program, interprets it for a profile, forms and
// fully compiles the superblock at seed.
func compileGuest(t *testing.T, seed int, mode sched.HWMode, build func(*guest.Builder)) (*vliw.CompiledRegion, *guest.Program) {
	t.Helper()
	seq, reg, insts, prog := scheduleGuest(t, seed, mode, build)
	return vliw.DefaultConfig().Compile(seq, reg, insts), prog
}

// scheduleGuest is compileGuest up to the schedule: it returns the
// scheduled ops, their region and the superblock's guest instruction
// count, for tests that inspect the schedule itself.
func scheduleGuest(t *testing.T, seed int, mode sched.HWMode, build func(*guest.Builder)) ([]*ir.Op, *ir.Region, int, *guest.Program) {
	t.Helper()
	b := guest.NewBuilder()
	build(b)
	prog := b.MustProgram()
	it := interp.New(prog, &guest.State{}, guest.NewMemory(4096))
	_, _ = it.Run(0, 100_000)
	sb, err := region.Form(prog, it.Prof, seed, region.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg, err := xlate.TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	tbl := alias.BuildTable(reg, nil)
	optCfg := opt.Config{LoadElim: true, StoreElim: true, Speculative: mode == sched.HWOrdered}
	if mode == sched.HWALAT {
		optCfg = opt.Config{}
	}
	optRes := opt.Run(reg, tbl, optCfg)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	sc, err := sched.Run(reg, tbl, ds, sched.Config{
		Mode: mode, NumAliasRegs: 64, StoreReorder: true,
		PressureMargin: 4, Machine: vliw.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc.Seq, reg, len(sb.Insts), prog
}

func TestExecuteCommitMatchesInterpreter(t *testing.T) {
	build := func(b *guest.Builder) {
		b.NewBlock()
		b.Li(1, 64)      // base
		b.Li(2, 128)     // other base
		b.Ld8(3, 1, 0)   // may-alias games below
		b.St8(2, 0, 3)   // store to other array
		b.Ld8(4, 1, 8)   // reorderable load
		b.Addi(5, 4, 10) //
		b.St8(1, 16, 5)  // store
		b.Ld8(6, 2, 0)   // load back (must-alias store above -> elim)
		b.Add(7, 6, 5)   //
		b.St8(1, 24, 7)  //
		b.Halt()
	}
	cr, prog := compileGuest(t, 0, sched.HWOrdered, build)

	// Reference: pure interpretation.
	refSt := &guest.State{}
	refMem := guest.NewMemory(4096)
	refIt := interp.New(prog, refSt, refMem)
	if _, err := refIt.Run(0, 100_000); err != nil {
		t.Fatal(err)
	}

	// Region execution.
	st := &guest.State{}
	mem := guest.NewMemory(4096)
	det := aliashw.NewOrderedQueue(64)
	res := vliw.Execute(cr, st, mem, det)
	if res.Outcome != vliw.Commit {
		t.Fatalf("outcome = %s, want commit", res.Outcome)
	}
	if res.NextBlock != interp.HaltID {
		t.Errorf("next block = %d, want halt", res.NextBlock)
	}
	for r := 0; r < guest.NumRegs; r++ {
		if st.R[r] != refSt.R[r] {
			t.Errorf("r%d = %d, interpreter got %d", r, st.R[r], refSt.R[r])
		}
	}
	for a := uint64(0); a < 4096; a += 8 {
		got, _ := mem.Load(a, 8)
		want, _ := refMem.Load(a, 8)
		if got != want {
			t.Errorf("mem[%d] = %d, interpreter got %d", a, got, want)
		}
	}
}

func TestExecuteGuardFailRollsBack(t *testing.T) {
	// A loop trace compiled with the loop-back guard expected taken; run
	// it with a state that exits immediately.
	build := func(b *guest.Builder) {
		b.NewBlock() // B0
		b.Li(1, 50)
		b.Li(2, 64)
		b.NewBlock() // B1: loop
		b.Ld8(3, 2, 0)
		b.Addi(3, 3, 1)
		b.St8(2, 0, 3)
		b.Addi(1, 1, -1)
		b.Bne(1, 0, 1)
		b.NewBlock()
		b.Halt()
	}
	cr, _ := compileGuest(t, 1, sched.HWOrdered, build)

	st := &guest.State{}
	st.R[1] = 1 // guard bne r1-1 != 0 will fail
	st.R[2] = 64
	mem := guest.NewMemory(4096)
	if err := mem.Store(64, 8, 7); err != nil {
		t.Fatal(err)
	}
	det := aliashw.NewOrderedQueue(64)
	res := vliw.Execute(cr, st, mem, det)
	if res.Outcome != vliw.GuardFail {
		t.Fatalf("outcome = %s, want guard-fail", res.Outcome)
	}
	// Everything rolled back.
	if st.R[1] != 1 || st.R[3] != 0 {
		t.Errorf("state not rolled back: r1=%d r3=%d", st.R[1], st.R[3])
	}
	v, _ := mem.Load(64, 8)
	if v != 7 {
		t.Errorf("memory not rolled back: %d, want 7", v)
	}
}

func TestExecuteAliasExceptionOnRealAlias(t *testing.T) {
	// A load speculatively hoisted above a may-alias store; run with
	// addresses that actually collide.
	build := func(b *guest.Builder) {
		b.NewBlock()
		b.St8(1, 0, 5)  // store [r1]
		b.Ld8(3, 2, 0)  // load [r2] — different roots, may alias
		b.Addi(4, 3, 1) // consumer chain makes hoisting attractive
		b.Addi(4, 4, 1)
		b.St8(1, 8, 4)
		b.Halt()
	}
	seq, reg, insts, _ := scheduleGuest(t, 0, sched.HWOrdered, build)
	cr := vliw.DefaultConfig().Compile(seq, reg, insts)

	// Confirm the load was hoisted; otherwise the test is vacuous.
	stIdx, ldIdx := -1, -1
	for i, op := range seq {
		if op.Kind == ir.Store && stIdx == -1 {
			stIdx = i
		}
		if op.Kind == ir.Load {
			ldIdx = i
		}
	}
	if ldIdx > stIdx {
		t.Fatal("load was not hoisted; test setup broken")
	}

	st := &guest.State{}
	st.R[1] = 64
	st.R[2] = 64 // same address: genuine alias
	st.R[5] = 99
	mem := guest.NewMemory(4096)
	det := aliashw.NewOrderedQueue(64)
	res := vliw.Execute(cr, st, mem, det)
	if res.Outcome != vliw.AliasException {
		t.Fatalf("outcome = %s, want alias-exception", res.Outcome)
	}
	if res.Conflict == nil {
		t.Fatal("no conflict reported")
	}
	// Rolled back: no stores landed.
	v, _ := mem.Load(64, 8)
	if v != 0 {
		t.Errorf("memory modified despite exception: %d", v)
	}

	// With disjoint addresses the same region commits silently.
	st2 := &guest.State{}
	st2.R[1] = 64
	st2.R[2] = 256
	st2.R[5] = 99
	mem2 := guest.NewMemory(4096)
	res2 := vliw.Execute(cr, st2, mem2, det)
	if res2.Outcome != vliw.Commit {
		t.Fatalf("disjoint run outcome = %s, want commit", res2.Outcome)
	}
	v, _ = mem2.Load(64, 8)
	if v != 99 {
		t.Errorf("store lost: mem[64]=%d, want 99", v)
	}
}

func TestExecuteFaultRollsBack(t *testing.T) {
	build := func(b *guest.Builder) {
		b.NewBlock()
		b.St8(1, 0, 5)
		b.Ld8(3, 2, 0)
		b.Halt()
	}
	cr, _ := compileGuest(t, 0, sched.HWOrdered, build)
	st := &guest.State{}
	st.R[1] = 64
	st.R[2] = 1 << 40 // way out of range
	mem := guest.NewMemory(4096)
	det := aliashw.NewOrderedQueue(64)
	res := vliw.Execute(cr, st, mem, det)
	if res.Outcome != vliw.Fault {
		t.Fatalf("outcome = %s, want fault", res.Outcome)
	}
	v, _ := mem.Load(64, 8)
	if v != 0 {
		t.Error("store survived a faulting region")
	}
}

func TestCycleCountInOrderStalls(t *testing.T) {
	c := vliw.DefaultConfig()
	// Load (lat 3) immediately consumed: total = load at 0, add stalls to
	// cycle 3, result cycle count 4.
	ops := []*ir.Op{
		{ID: 0, Kind: ir.Load, GOp: guest.Ld8, Dst: 64, Srcs: []ir.VReg{1}, SrcFloat: []bool{false},
			Mem: &ir.MemInfo{Base: 1, Size: 8}, AROffset: -1},
		{ID: 1, Kind: ir.Arith, GOp: guest.Addi, Dst: 65, Srcs: []ir.VReg{64}, SrcFloat: []bool{false}, AROffset: -1},
	}
	if got := c.CycleCount(ops, 70); got != 4 {
		t.Errorf("stalled sequence cycles = %d, want 4", got)
	}
	// Independent op between: still 4 (fills one stall cycle).
	ops2 := []*ir.Op{
		ops[0],
		{ID: 2, Kind: ir.Arith, GOp: guest.Li, Dst: 66, AROffset: -1},
		ops[1],
	}
	if got := c.CycleCount(ops2, 70); got != 4 {
		t.Errorf("filled sequence cycles = %d, want 4", got)
	}
}

func TestCycleCountResourceLimits(t *testing.T) {
	c := vliw.DefaultConfig() // 4-wide, 2 mem ports
	var seq []*ir.Op
	for i := 0; i < 4; i++ {
		seq = append(seq, &ir.Op{ID: i, Kind: ir.Load, GOp: guest.Ld8,
			Dst: ir.VReg(64 + i), Srcs: []ir.VReg{1}, SrcFloat: []bool{false},
			Mem: &ir.MemInfo{Base: 1, Size: 8}, AROffset: -1})
	}
	// 4 independent loads, 2 ports: 2 cycles of issue -> count 2.
	if got := c.CycleCount(seq, 70); got != 2 {
		t.Errorf("4 loads on 2 ports = %d cycles, want 2", got)
	}
	var alus []*ir.Op
	for i := 0; i < 8; i++ {
		alus = append(alus, &ir.Op{ID: i, Kind: ir.Arith, GOp: guest.Li,
			Dst: ir.VReg(64 + i), AROffset: -1})
	}
	if got := c.CycleCount(alus, 80); got != 2 {
		t.Errorf("8 ALU ops on width 4 = %d cycles, want 2", got)
	}
}

func TestLatencyTable(t *testing.T) {
	c := vliw.DefaultConfig()
	cases := []struct {
		op   *ir.Op
		want int
	}{
		{&ir.Op{Kind: ir.Load, GOp: guest.Ld8}, c.MemLat},
		{&ir.Op{Kind: ir.Store, GOp: guest.St8}, 1},
		{&ir.Op{Kind: ir.Arith, GOp: guest.Add}, c.IntLat},
		{&ir.Op{Kind: ir.Arith, GOp: guest.FMul}, c.FPLat},
		{&ir.Op{Kind: ir.Arith, GOp: guest.FDiv}, c.FDivLat},
		{&ir.Op{Kind: ir.Arith, GOp: guest.FSqrt}, c.FSqrtLat},
		{&ir.Op{Kind: ir.Guard, GOp: guest.Bne}, 1},
		{&ir.Op{Kind: ir.Rotate}, 1},
		{&ir.Op{Kind: ir.AMov}, 1},
		{&ir.Op{Kind: ir.Copy}, 1},
	}
	for _, cse := range cases {
		if got := c.Latency(cse.op); got != cse.want {
			t.Errorf("latency(%v/%s) = %d, want %d", cse.op.Kind, cse.op.GOp, got, cse.want)
		}
	}
	if c.Class(&ir.Op{Kind: ir.Load}) != vliw.MemPort || c.Class(&ir.Op{Kind: ir.Arith}) != vliw.ALUPort {
		t.Error("port classes wrong")
	}
}

// TestExecuteBitmaskDetector runs a compiled region against the bit-mask
// hardware end to end: silent on disjoint addresses, an exception on a
// genuine alias.
func TestExecuteBitmaskDetector(t *testing.T) {
	build := func(b *guest.Builder) {
		b.NewBlock()
		b.St8(1, 0, 5)
		b.Ld8(3, 2, 0)
		b.Addi(4, 3, 1)
		b.Addi(4, 4, 1)
		b.St8(1, 8, 4)
		b.Halt()
	}
	// Compile for the bitmask hardware.
	bm := func() *vliw.CompiledRegion {
		bb := guest.NewBuilder()
		build(bb)
		prog := bb.MustProgram()
		it := interp.New(prog, &guest.State{}, guest.NewMemory(4096))
		_, _ = it.Run(0, 100_000)
		sb, err := region.Form(prog, it.Prof, 0, region.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		reg, err := xlate.TranslateArena(sb, ir.NewArena())
		if err != nil {
			t.Fatal(err)
		}
		tbl := alias.BuildTable(reg, nil)
		ds := deps.Compute(reg, tbl)
		sc, err := sched.Run(reg, tbl, ds, sched.Config{
			Mode: sched.HWBitmask, NumAliasRegs: 15, StoreReorder: true,
			PressureMargin: 2, Machine: vliw.DefaultConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return vliw.DefaultConfig().Compile(sc.Seq, reg, len(sb.Insts))
	}()

	det := aliashw.NewBitmask(15)
	st := &guest.State{}
	st.R[1], st.R[2], st.R[5] = 64, 256, 9
	mem := guest.NewMemory(4096)
	if res := vliw.Execute(bm, st, mem, det); res.Outcome != vliw.Commit {
		t.Fatalf("disjoint run = %s, want commit", res.Outcome)
	}

	st2 := &guest.State{}
	st2.R[1], st2.R[2], st2.R[5] = 64, 64, 9 // genuine alias
	res := vliw.Execute(bm, st2, guest.NewMemory(4096), det)
	if res.Outcome != vliw.AliasException {
		t.Fatalf("aliasing run = %s, want alias-exception", res.Outcome)
	}
	if res.Conflict == nil || res.Conflict.Origin == res.Conflict.Checker {
		t.Errorf("bad conflict report: %+v", res.Conflict)
	}
}

// TestExecuteCoversAllOpcodes compiles a straight-line program exercising
// every executable guest opcode and compares region execution against the
// interpreter — per-opcode differential coverage of execArith/evalGuard.
func TestExecuteCoversAllOpcodes(t *testing.T) {
	build := func(b *guest.Builder) {
		b.NewBlock()
		b.Li(1, 7)
		b.Li(2, 3)
		b.Li(3, 1024)
		b.Mov(4, 1)
		b.Add(5, 1, 2)
		b.Sub(6, 1, 2)
		b.Mul(7, 1, 2)
		b.Div(8, 1, 2)
		b.Div(9, 1, 0) // divide by zero path
		b.And(10, 1, 2)
		b.Or(11, 1, 2)
		b.Xor(12, 1, 2)
		b.Shl(13, 1, 2)
		b.Shr(14, 1, 2)
		b.Addi(15, 1, -20)
		b.Muli(16, 1, 5)
		b.Slt(17, 2, 1)
		b.Slt(18, 1, 2)
		b.FLi(1, 2.5)
		b.FLi(2, -1.25)
		b.FMov(3, 1)
		b.FAdd(4, 1, 2)
		b.FSub(5, 1, 2)
		b.FMul(6, 1, 2)
		b.FDiv(7, 1, 2)
		b.FNeg(8, 1)
		b.FAbs(9, 2)
		b.FSqrt(10, 1)
		b.CvtIF(11, 5)
		b.CvtFI(19, 7)
		b.St1(3, 0, 1)
		b.St2(3, 2, 1)
		b.St4(3, 4, 1)
		b.St8(3, 8, 1)
		b.FSt8(3, 16, 4)
		b.Ld1(20, 3, 0)
		b.Ld2(21, 3, 2)
		b.Ld4(22, 3, 4)
		b.Ld8(23, 3, 8)
		b.FLd8(12, 3, 16)
		b.Halt()
	}
	cr, prog := compileGuest(t, 0, sched.HWOrdered, build)
	ref := interp.New(prog, &guest.State{}, guest.NewMemory(4096))
	if _, err := ref.Run(0, 100_000); err != nil {
		t.Fatal(err)
	}
	st := &guest.State{}
	mem := guest.NewMemory(4096)
	res := vliw.Execute(cr, st, mem, aliashw.NewOrderedQueue(64))
	if res.Outcome != vliw.Commit {
		t.Fatalf("outcome = %s", res.Outcome)
	}
	for r := 0; r < guest.NumRegs; r++ {
		if st.R[r] != ref.St.R[r] {
			t.Errorf("r%d = %d, interpreter got %d", r, st.R[r], ref.St.R[r])
		}
		if st.F[r] != ref.St.F[r] {
			t.Errorf("f%d = %v, interpreter got %v", r, st.F[r], ref.St.F[r])
		}
	}
}

// TestExecuteAllGuardKinds covers every branch opcode as a guard, both
// directions.
func TestExecuteAllGuardKinds(t *testing.T) {
	for _, op := range []guest.Opcode{guest.Beq, guest.Bne, guest.Blt, guest.Bge} {
		for _, taken := range []bool{true, false} {
			bb := guest.NewBuilder()
			bb.NewBlock() // B0: sets up a loop so the branch becomes a guard
			bb.Li(1, 4)
			bb.Li(2, 2)
			body := bb.NewBlock()
			bb.Addi(3, 3, 1)
			bb.Emit(guest.Inst{Op: op, Rs1: 1, Rs2: 2, Target: body})
			bb.NewBlock()
			bb.Halt()
			prog := bb.MustProgram()
			st := &guest.State{}
			mem := guest.NewMemory(64)
			it := interp.New(prog, st, mem)
			// Give the loop block enough heat to be formed as a region.
			it.Prof.BlockCounts[body] = 100
			it.Prof.AddEdges(body, body, 90)
			it.Prof.AddEdges(body, body+1, 10)
			sb, err := region.Form(prog, it.Prof, body, region.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			reg, err := xlate.TranslateArena(sb, ir.NewArena())
			if err != nil {
				t.Fatal(err)
			}
			tbl := alias.BuildTable(reg, nil)
			ds := deps.Compute(reg, tbl)
			sc, err := sched.Run(reg, tbl, ds, sched.Config{
				Mode: sched.HWOrdered, NumAliasRegs: 64, StoreReorder: true,
				PressureMargin: 4, Machine: vliw.DefaultConfig(),
			})
			if err != nil {
				t.Fatal(err)
			}
			cr := vliw.DefaultConfig().Compile(sc.Seq, reg, len(sb.Insts))

			run := &guest.State{}
			if taken {
				// Choose registers so the branch goes the on-trace way.
				run.R[1], run.R[2] = guardRegs(op, true)
			} else {
				run.R[1], run.R[2] = guardRegs(op, false)
			}
			res := vliw.Execute(cr, run, guest.NewMemory(64), aliashw.NewOrderedQueue(8))
			wantCommit := taken // the trace expects the loop-back taken
			if (res.Outcome == vliw.Commit) != wantCommit {
				t.Errorf("%s taken=%v: outcome %s", op, taken, res.Outcome)
			}
		}
	}
}

// guardRegs picks r1, r2 values making op's condition true or false.
func guardRegs(op guest.Opcode, cond bool) (int64, int64) {
	switch op {
	case guest.Beq:
		if cond {
			return 5, 5
		}
		return 5, 6
	case guest.Bne:
		if cond {
			return 5, 6
		}
		return 5, 5
	case guest.Blt:
		if cond {
			return 1, 2
		}
		return 2, 1
	default: // Bge
		if cond {
			return 2, 1
		}
		return 1, 2
	}
}
