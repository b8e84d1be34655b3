package vliw_test

import (
	"fmt"
	"math"
	"math/rand"
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

// hwModes is every alias hardware mode, each with the detector dynopt
// builds for it, plus the ordered queue and the ALAT behind a plain
// Detector type of another package: a region bakes for the hardware its
// detector names (Detector.HW), whatever the detector's type (the ALAT
// there because it acts on stores without a P or C bit).
var hwModes = []struct {
	name string
	mode sched.HWMode
	regs int
	det  func() aliashw.Detector
}{
	{"ordered64", sched.HWOrdered, 64, func() aliashw.Detector { return aliashw.NewOrderedQueue(64) }},
	{"alat", sched.HWALAT, 64, func() aliashw.Detector { return aliashw.NewALAT() }},
	{"bitmask15", sched.HWBitmask, 15, func() aliashw.Detector { return aliashw.NewBitmask(15) }},
	{"none", sched.HWNone, 64, func() aliashw.Detector { return aliashw.None{} }},
	{"generic-ordered64", sched.HWOrdered, 64, func() aliashw.Detector { return plainDetector{aliashw.NewOrderedQueue(64)} }},
	{"generic-alat", sched.HWALAT, 64, func() aliashw.Detector { return plainDetector{aliashw.NewALAT()} }},
	{"ordered16", sched.HWOrdered, 16, func() aliashw.Detector { return aliashw.NewOrderedQueue(16) }},
	{"ordered100", sched.HWOrdered, 100, func() aliashw.Detector { return aliashw.NewOrderedQueue(100) }},
}

// plainDetector hides a detector's concrete type.
type plainDetector struct{ aliashw.Detector }

// TestExecuteZeroAllocsOnCommit pins the steady-state commit path of the
// pooled execution engine at zero heap allocations under every alias
// hardware mode of hwModes, the generic arm included: after one warm-up
// entry (which sizes the vreg files and undo log), a full
// Begin/execute/Commit region entry must not touch the heap. Each mode
// runs two regions: a straight-line block ending in halt, and the
// store/load loop BenchmarkExecute times, entered at its loop head with a
// limit that keeps the guard taken so every entry commits.
func TestExecuteZeroAllocsOnCommit(t *testing.T) {
	regions := []struct {
		name  string
		build func(b *guest.Builder) (seed int)
		entry guest.State
	}{
		{"straight", func(b *guest.Builder) int {
			b.NewBlock()
			b.Li(1, 64)
			b.Li(2, 128)
			b.Ld8(3, 1, 0)
			b.St8(2, 0, 3)
			b.Ld8(4, 1, 8)
			b.Addi(5, 4, 10)
			b.St8(1, 16, 5)
			b.Ld8(6, 2, 0)
			b.Add(7, 6, 5)
			b.St8(1, 24, 7)
			b.Halt()
			return 0
		}, guest.State{}},
		{"loop", func(b *guest.Builder) int {
			b.NewBlock()
			b.Li(1, 1024)
			b.Li(2, 4096)
			b.Li(3, 0)
			b.Li(4, 1<<30)
			loop := b.NewBlock()
			b.St8(1, 0, 5)
			b.Ld8(6, 2, 0)
			b.Addi(5, 6, 3)
			b.Addi(3, 3, 1)
			b.Blt(3, 4, loop)
			b.NewBlock()
			b.Halt()
			return loop
		}, guest.State{R: [guest.NumRegs]int64{1: 1024, 2: 4096, 4: 1 << 30}}},
	}
	for _, m := range hwModes {
		for _, r := range regions {
			t.Run(m.name+"/"+r.name, func(t *testing.T) {
				b := guest.NewBuilder()
				seed := r.build(b)
				seq, reg, insts, err := fuzzSchedule(b.MustProgram(), seed, m.mode, m.regs)
				if err != nil {
					t.Fatal(err)
				}
				cr := vliw.DefaultConfig().Compile(seq, reg, insts)
				st := r.entry
				mem := guest.NewMemory(1 << 13)
				det := m.det()
				var ctx vliw.ExecContext

				if res := ctx.Execute(cr, &st, mem, det); res.Outcome != vliw.Commit {
					t.Fatalf("warm-up outcome = %s, want commit", res.Outcome)
				}
				allocs := testing.AllocsPerRun(100, func() {
					if res := ctx.Execute(cr, &st, mem, det); res.Outcome != vliw.Commit {
						t.Fatalf("outcome = %s, want commit", res.Outcome)
					}
				})
				if allocs != 0 {
					t.Errorf("steady-state commit path allocates %v times per entry, want 0", allocs)
				}
			})
		}
	}
}

// randomRegionProgram builds a random counted-loop guest program for the
// differential engine test: array accesses through four base registers,
// float round trips, narrow accesses, and a loop-back branch that becomes
// the region guard. Deterministic for a given rng.
func randomRegionProgram(rng *rand.Rand) (*guest.Program, int) {
	b := guest.NewBuilder()
	b.NewBlock()
	for i := 0; i < 4; i++ {
		b.Li(guest.Reg(1+i), int64(1<<10)+int64(rng.Intn(4))*512)
	}
	b.Li(5, 0)
	b.Li(7, int64(40+rng.Intn(60)))
	for r := 10; r <= 14; r++ {
		b.Li(guest.Reg(r), int64(rng.Intn(64))*8)
	}
	b.FLi(1, 0.5)
	loop := b.NewBlock()
	nOps := 4 + rng.Intn(12)
	for i := 0; i < nOps; i++ {
		base := guest.Reg(1 + rng.Intn(4))
		off := int64(rng.Intn(32)) * 8
		scratch := guest.Reg(10 + rng.Intn(5))
		switch rng.Intn(8) {
		case 0, 1:
			b.St8(base, off, scratch)
		case 2, 3:
			b.Ld8(scratch, base, off)
		case 4:
			b.FSt8(base, off, 1)
			b.FLd8(2, base, off)
			b.FAdd(1, 1, 2)
		case 5:
			b.Addi(scratch, scratch, int64(rng.Intn(16)))
			b.Mul(11, scratch, 10)
		default:
			b.St4(base, off, scratch)
			b.Ld2(scratch, base, off)
		}
	}
	b.Addi(5, 5, 1)
	b.Blt(5, 7, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram(), loop
}

// fuzzSchedule runs the compilation pipeline at seedBlock for the given
// hardware mode and alias register count up to the schedule, mirroring
// scheduleGuest but returning errors so the fuzz loop can skip unformable
// regions.
func fuzzSchedule(prog *guest.Program, seedBlock int, mode sched.HWMode, regs int) ([]*ir.Op, *ir.Region, int, error) {
	it := interp.New(prog, &guest.State{}, guest.NewMemory(1<<13))
	if _, err := it.Run(0, 200_000); err != nil {
		return nil, nil, 0, err
	}
	optCfg := opt.Config{}
	if mode == sched.HWOrdered {
		optCfg = opt.Config{LoadElim: true, StoreElim: true, Speculative: true}
	}
	return scheduleRegion(prog, it.Prof, seedBlock, mode, regs, optCfg)
}

// scheduleRegion forms the region at seedBlock from prof and schedules it
// for the hardware mode with regs alias registers.
func scheduleRegion(prog *guest.Program, prof *interp.Profile, seedBlock int, mode sched.HWMode, regs int,
	optCfg opt.Config) ([]*ir.Op, *ir.Region, int, error) {
	sb, err := region.Form(prog, prof, seedBlock, region.DefaultConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	reg, err := xlate.TranslateArena(sb, ir.NewArena())
	if err != nil {
		return nil, nil, 0, err
	}
	tbl := alias.BuildTable(reg, nil)
	optRes := opt.Run(reg, tbl, optCfg)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	sc, err := sched.Run(reg, tbl, ds, sched.Config{
		Mode: mode, NumAliasRegs: regs, StoreReorder: true,
		PressureMargin: 4, Machine: vliw.DefaultConfig(),
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return sc.Seq, reg, len(sb.Insts), nil
}

// randExecState builds a randomized region-entry state: mostly valid
// array bases (occasionally faulting, occasionally genuinely aliasing)
// and a loop counter/limit pair that sometimes fails the region guard.
func randExecState(rng *rand.Rand) *guest.State {
	st := &guest.State{}
	for r := 1; r < guest.NumRegs; r++ {
		st.R[r] = int64(rng.Intn(256))
		st.F[r] = float64(rng.Intn(64)) / 4
	}
	for r := 1; r <= 4; r++ {
		st.R[r] = int64(rng.Intn(1 << 12))
		switch rng.Intn(24) {
		case 0:
			st.R[r] = 1 << 40 // faulting base
		case 1, 2: // just below a page boundary: accesses straddle it
			st.R[r] = int64(1+rng.Intn(3))*guest.PageSize - 1 - int64(rng.Intn(8))
		}
	}
	if rng.Intn(3) == 0 { // force a genuine alias between two bases
		st.R[1+rng.Intn(4)] = st.R[1+rng.Intn(4)]
	}
	st.R[5] = int64(rng.Intn(4)) // loop counter
	st.R[7] = int64(rng.Intn(8)) // limit: counter >= limit fails the guard
	return st
}

// fillMem stores random words across a differential's 8 KiB memory,
// one of them straddling each page boundary.
func fillMem(mem *guest.Memory, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 128; i++ {
		_ = mem.Store(uint64(rng.Intn(1<<10))*8, 8, uint64(rng.Int63()))
	}
	for p := uint64(guest.PageSize); p < 1<<13; p += guest.PageSize {
		_ = mem.Store(p-4, 8, uint64(rng.Int63()))
	}
}

// diffEngines runs one region entry through both engines — the baked
// pooled one (ctx.Execute on cr) and the original ir.Op-walking executor
// (ExecuteRef on the schedule cr was compiled from) — from the same entry
// state and a memory filled from memSeed, each against its own detector
// from newDet, and fails unless they agree op for op: outcome, next
// block, conflict identity, ops executed, final registers bit for bit,
// memory contents, the Checked() energy proxy, the alias-register high
// water and the stores buffered. The baked engine must leave its detector
// untouched. It returns the baked engine's result.
func diffEngines(tb testing.TB, tag string, ctx *vliw.ExecContext, cr *vliw.CompiledRegion, seq []*ir.Op, reg *ir.Region,
	entry *guest.State, memSeed int64, newDet func() aliashw.Detector) vliw.ExecResult {
	tb.Helper()
	stRef, stDec := *entry, *entry
	memRef := guest.NewMemory(1 << 13)
	memDec := guest.NewMemory(1 << 13)
	fillMem(memRef, memSeed)
	fillMem(memDec, memSeed)
	detRef, detDec := newDet(), newDet()

	resRef := vliw.ExecuteRef(seq, reg, &stRef, memRef, detRef)
	resDec := ctx.Execute(cr, &stDec, memDec, detDec)

	if resDec.Outcome != resRef.Outcome {
		tb.Fatalf("%s: outcome %s, reference %s", tag, resDec.Outcome, resRef.Outcome)
	}
	if resDec.NextBlock != resRef.NextBlock || resDec.OpsExecuted != resRef.OpsExecuted {
		tb.Fatalf("%s: next/ops = %d/%d, reference %d/%d", tag,
			resDec.NextBlock, resDec.OpsExecuted, resRef.NextBlock, resRef.OpsExecuted)
	}
	if (resDec.Conflict == nil) != (resRef.Conflict == nil) {
		tb.Fatalf("%s: conflict %v, reference %v", tag, resDec.Conflict, resRef.Conflict)
	}
	if resDec.Conflict != nil && *resDec.Conflict != *resRef.Conflict {
		tb.Fatalf("%s: conflict %+v, reference %+v", tag, *resDec.Conflict, *resRef.Conflict)
	}
	for r := 0; r < guest.NumRegs; r++ {
		if stDec.R[r] != stRef.R[r] || math.Float64bits(stDec.F[r]) != math.Float64bits(stRef.F[r]) {
			tb.Fatalf("%s: r%d/f%d = %d/%v, reference %d/%v", tag, r, r, stDec.R[r], stDec.F[r], stRef.R[r], stRef.F[r])
		}
	}
	if memDec.Digest() != memRef.Digest() {
		tb.Fatalf("%s: memory digest diverged", tag)
	}
	if resDec.Checked != resRef.Checked || detDec.Checked() != 0 {
		tb.Fatalf("%s: Checked = %d (detector %d), reference %d", tag, resDec.Checked, detDec.Checked(), resRef.Checked)
	}
	if resDec.ARHighWater != resRef.ARHighWater || resDec.StoresBuffered != resRef.StoresBuffered {
		tb.Fatalf("%s: alias-register high water %d and %d stores buffered, reference %d and %d",
			tag, resDec.ARHighWater, resDec.StoresBuffered, resRef.ARHighWater, resRef.StoresBuffered)
	}
	return resDec
}

// coverProgram builds a counted loop whose body runs every guest opcode
// randomRegionProgram leaves out — the whole ALU, both register files'
// conversions, every access width, a dead store and two forwarded loads
// (one per register file) — and exits through guard opcode exit: the
// body's forward Beq stays off trace, and the loop-back branch is
// Blt/Bne/Bge per exit. Entered with randExecState's registers, its
// bases r1-r4, counter r5 and limit r7 mean what they mean there.
func coverProgram(exit guest.Opcode) (*guest.Program, int) {
	b := guest.NewBuilder()
	b.NewBlock()
	for i := 0; i < 4; i++ {
		b.Li(guest.Reg(1+i), int64(1<<10)+int64(i)*512)
	}
	b.Li(5, 0)
	b.Li(7, 50)
	for r := 10; r <= 14; r++ {
		b.Li(guest.Reg(r), int64(r)*8)
	}
	b.FLi(1, 0.5)
	b.FLi(3, -2)
	loop := b.NewBlock()
	b.Li(20, -3)
	b.Mov(15, 10)
	b.Add(16, 10, 11)
	b.Sub(17, 16, 12)
	b.Mul(18, 17, 13)
	b.Div(19, 18, 12)
	b.Sub(22, 10, 10)
	b.Div(21, 18, 22) // by zero
	b.And(23, 16, 11)
	b.Or(24, 16, 20)
	b.Xor(25, 24, 14)
	b.Shl(26, 15, 13)
	b.Shr(27, 18, 11)
	b.Muli(28, 10, -7)
	b.Slt(29, 20, 15)
	b.FLi(4, 1.5)
	b.FMov(5, 1)
	b.FSub(6, 5, 3)
	b.FMul(7, 6, 4)
	b.FDiv(8, 7, 3)
	b.FNeg(9, 8)
	b.FAbs(10, 9)
	b.FSqrt(11, 10)
	b.CvtIF(12, 28)
	b.CvtFI(30, 8)
	b.St1(1, 0, 25)
	b.St2(1, 2, 26)
	b.St4(1, 4, 27)
	b.Ld1(10, 1, 0)
	b.Ld2(11, 1, 2)
	b.Ld4(12, 1, 4)
	b.St8(2, 8, 18) // dead: the next store overwrites it
	b.St8(2, 8, 16)
	b.Ld8(13, 2, 8) // forwarded from the store above
	b.FSt8(3, 16, 11)
	b.FLd8(13, 3, 16) // forwarded from the store above
	b.FAdd(1, 1, 13)
	b.Beq(5, 20, 3) // r5 never reaches -3: off trace
	b.NewBlock()
	b.Addi(5, 5, 1)
	switch exit {
	case guest.Blt:
		b.Blt(5, 7, loop)
	case guest.Bne:
		b.Bne(5, 7, loop)
	default:
		b.Bge(7, 5, loop)
	}
	b.NewBlock()
	b.Halt()
	return b.MustProgram(), loop
}

// edgeSchedule is a hand-built schedule for the ops region compilation
// never emits on its own: the no-op an eliminated store leaves (the
// scheduler drops it) and AMov moves, which the allocator inserts only to
// break an anti-constraint cycle, including one whose destination falls
// past the 64-register queue. Bases v1 and v2 are the entry's r1 and r2,
// which randExecState sometimes makes equal, so the checking store can
// hit the moved register.
func edgeSchedule() ([]*ir.Op, *ir.Region) {
	const v = ir.VReg(2 * guest.NumRegs)
	ld := func(id int, dst, base ir.VReg, off int64, arOff int) *ir.Op {
		return &ir.Op{ID: id, Kind: ir.Load, GOp: guest.Ld8, Dst: dst, Srcs: []ir.VReg{base}, SrcFloat: []bool{false},
			Mem: &ir.MemInfo{Base: base, Off: off, Size: 8}, P: true, AROffset: arOff}
	}
	st := func(id int, val, base ir.VReg, off int64, arOff int) *ir.Op {
		return &ir.Op{ID: id, Kind: ir.Store, GOp: guest.St8, Dst: ir.NoVReg, Srcs: []ir.VReg{val, base},
			SrcFloat: []bool{false, false}, Mem: &ir.MemInfo{Base: base, Off: off, Size: 8}, C: true, AROffset: arOff}
	}
	seq := []*ir.Op{
		ld(0, v, 1, 0, 0),
		{ID: 1, Kind: ir.AMov, Dst: ir.NoVReg, SrcOff: 0, DstOff: 2, AROffset: -1},
		{ID: 2, Kind: ir.Rotate, Dst: ir.NoVReg, Amount: 1, AROffset: -1},
		st(3, 10, 2, 0, 0),
		ld(4, v+1, 2, 8, 3),
		{ID: 5, Kind: ir.AMov, Dst: ir.NoVReg, SrcOff: 3, DstOff: 64, AROffset: -1},
		{ID: 6, Kind: ir.Rotate, Dst: ir.NoVReg, Amount: 2, AROffset: -1},
		st(7, 11, 1, 8, 1),
		{ID: 8, Kind: ir.Arith, GOp: guest.Nop, Dst: ir.NoVReg, AROffset: -1},
		{ID: 9, Kind: ir.Arith, GOp: guest.Li, Dst: v + 2, Imm: 5, AROffset: -1},
	}
	reg := &ir.Region{NumVRegs: int(v) + 3, FinalTarget: 1}
	for r := 0; r < guest.NumRegs; r++ {
		reg.IntOut[r] = ir.LiveInInt(guest.Reg(r))
		reg.FloatOut[r] = ir.LiveInFloat(guest.Reg(r))
	}
	reg.IntOut[3], reg.IntOut[4], reg.IntOut[6] = v, v+1, v+2
	return seq, reg
}

// TestExecuteDecodedMatchesReference is the differential test between the
// decoded pooled engine (ExecContext.Execute) and the original
// ir.Op-walking executor (executeRef, run on the schedule the region was
// compiled from): on random compiled programs and the coverProgram loops,
// across all hardware modes and randomized entry states, both engines
// must agree op for op (diffEngines). Every fused execute opcode must be
// executed at least once, so every arm of the executor's switch is
// compared.
func TestExecuteDecodedMatchesReference(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	// One persistent context across every trial, mode, and entry:
	// exercises pooling hygiene (stale vregs, undo log, checkpoint reuse).
	var ctx vliw.ExecContext
	outcomes := map[vliw.Outcome]int{}
	executed := make([]int, vliw.NumXops)

	// entries runs six random entries of one compiled region under one
	// mode and tallies the outcomes and the fused opcodes executed.
	entries := func(name string, m int, cr *vliw.CompiledRegion, seq []*ir.Op, reg *ir.Region, seed int64) {
		xops := vliw.Xops(cr)
		rng := rand.New(rand.NewSource(seed * 31))
		for entry := 0; entry < 6; entry++ {
			tag := fmt.Sprintf("%s/%s entry %d", name, hwModes[m].name, entry)
			res := diffEngines(t, tag, &ctx, cr, seq, reg, randExecState(rng), seed+int64(entry), hwModes[m].det)
			outcomes[res.Outcome]++
			// An abort's op ran up to the check that stopped it.
			n := res.OpsExecuted
			if res.Outcome != vliw.Commit {
				n++
			}
			for _, x := range xops[:n] {
				executed[x]++
			}
		}
	}
	run := func(name string, build func() (*guest.Program, int), seed int64) {
		for m := range hwModes {
			// Rebuild the program per mode: translation annotates it.
			prog, loop := build()
			seq, reg, insts, err := fuzzSchedule(prog, loop, hwModes[m].mode, hwModes[m].regs)
			if err != nil {
				t.Logf("%s/%s: skip (compile: %v)", name, hwModes[m].name, err)
				continue
			}
			entries(name, m, vliw.DefaultConfig().Compile(seq, reg, insts), seq, reg, seed)
		}
	}
	for trial := 0; trial < trials; trial++ {
		seed := int64(4000 + trial)
		run(fmt.Sprintf("trial %d", trial), func() (*guest.Program, int) {
			return randomRegionProgram(rand.New(rand.NewSource(seed)))
		}, seed)
	}
	for i, exit := range []guest.Opcode{guest.Blt, guest.Bne, guest.Bge} {
		run("cover-"+exit.String(), func() (*guest.Program, int) { return coverProgram(exit) }, int64(5000+i))
	}
	seq, reg := edgeSchedule()
	for m := range hwModes {
		cr := vliw.DefaultConfig().Compile(seq, reg, len(seq))
		if err := cr.Validate(); err != nil {
			t.Fatal(err)
		}
		entries("edge", m, cr, seq, reg, 6000)
	}

	// The differential is only meaningful if it drove every outcome class
	// the engines distinguish (alias exceptions depend on speculation
	// actually being wrong, so only require them non-strictly).
	if outcomes[vliw.Commit] == 0 {
		t.Error("differential never committed a region")
	}
	if outcomes[vliw.GuardFail] == 0 {
		t.Error("differential never failed a guard")
	}
	if outcomes[vliw.Fault] == 0 {
		t.Error("differential never faulted")
	}
	if outcomes[vliw.AliasException] == 0 {
		t.Log("note: no alias exceptions driven (speculation never wrong)")
	}
	for x := 1; x < vliw.NumXops; x++ {
		if executed[x] == 0 {
			t.Errorf("fused opcode %s never executed", vliw.XopName(x))
		}
	}
	t.Logf("outcomes: %v", outcomes)
}

// TestValidatedOperandsSuffice clears, one at a time, each vreg field of
// every op of the coverProgram loops (which run every fused opcode the
// scheduler emits) and requires Validate to reject the region or Execute
// to run it from a committing entry without a panic: Validate demands
// every operand an executor arm reads.
func TestValidatedOperandsSuffice(t *testing.T) {
	entry := guest.State{}
	for i := 0; i < 4; i++ {
		entry.R[1+i] = int64(1<<10) + int64(i)*512
	}
	entry.R[7] = 50
	for r := 10; r <= 14; r++ {
		entry.R[r] = int64(r) * 8
	}
	entry.F[1], entry.F[3] = 0.5, -2
	fields := []string{"dst", "src0", "src1", "base"}
	for _, exit := range []guest.Opcode{guest.Blt, guest.Bne, guest.Bge} {
		for _, m := range hwModes[:4] {
			prog, loop := coverProgram(exit)
			seq, reg, insts, err := fuzzSchedule(prog, loop, m.mode, m.regs)
			if err != nil {
				t.Fatal(err)
			}
			machine := vliw.DefaultConfig()
			st := entry
			if res := vliw.Execute(machine.Compile(seq, reg, insts), &st, guest.NewMemory(1<<13), m.det()); res.Outcome != vliw.Commit {
				t.Fatalf("%s/%s: the entry does not commit: %s", exit, m.name, res.Outcome)
			}
			for slot := range seq {
				for field, name := range fields {
					cr := machine.Compile(seq, reg, insts)
					vliw.SetOperand(cr, slot, field, int32(ir.NoVReg))
					if cr.Validate() != nil {
						continue
					}
					func() {
						defer func() {
							if p := recover(); p != nil {
								t.Errorf("%s/%s slot %d (%s): Validate accepts a missing %s, Execute panics: %v",
									exit, m.name, slot, vliw.XopName(vliw.Xops(cr)[slot]), name, p)
							}
						}()
						st := entry
						vliw.Execute(cr, &st, guest.NewMemory(1<<13), m.det())
					}()
				}
			}
		}
	}
}

// TestExecuteDecodedMatchesReferenceEdgeCases extends the differential to
// the operands the decoded op shares one word between: an FLi of -0.0
// and of a NaN with a payload (its immediate travels as a bit pattern)
// and memory ops at a negative offset (a signed offset in that word);
// and to loads across a page boundary, which the page fast path declines
// and Memory.Load serves.
// Both engines must agree bit for bit under every hardware mode, and the
// decoded one must produce the exact bits the program wrote.
func TestExecuteDecodedMatchesReferenceEdgeCases(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanPayload := math.Float64frombits(0x7ff4_dead_beef_0001)
	cases := []struct {
		name  string
		build func(b *guest.Builder)
		check func(st *guest.State, mem *guest.Memory) string
	}{
		{"fli-negative-zero", func(b *guest.Builder) {
			b.Li(1, 1024)
			b.FLi(1, negZero)
			b.FSt8(1, 0, 1)
		}, func(st *guest.State, mem *guest.Memory) string {
			if got := math.Float64bits(st.F[1]); got != math.Float64bits(negZero) {
				return fmt.Sprintf("f1 bits %#x, want -0.0", got)
			}
			if got, _ := mem.Load(1024, 8); got != math.Float64bits(negZero) {
				return fmt.Sprintf("stored bits %#x, want -0.0", got)
			}
			return ""
		}},
		{"fli-nan-payload", func(b *guest.Builder) {
			b.Li(1, 1024)
			b.FLi(2, nanPayload)
			b.FSt8(1, 8, 2)
		}, func(st *guest.State, mem *guest.Memory) string {
			if got := math.Float64bits(st.F[2]); got != math.Float64bits(nanPayload) {
				return fmt.Sprintf("f2 bits %#x, want %#x", got, math.Float64bits(nanPayload))
			}
			if got, _ := mem.Load(1032, 8); got != math.Float64bits(nanPayload) {
				return fmt.Sprintf("stored bits %#x, want %#x", got, math.Float64bits(nanPayload))
			}
			return ""
		}},
		{"negative-offset", func(b *guest.Builder) {
			b.Li(1, 1024)
			b.Li(2, 77)
			b.St8(1, -8, 2)
			b.Ld8(3, 1, -8)
			b.St4(1, -1000, 3)
			b.Ld4(4, 1, -1000)
		}, func(st *guest.State, mem *guest.Memory) string {
			if st.R[3] != 77 || st.R[4] != 77 {
				return fmt.Sprintf("r3, r4 = %d, %d, want 77, 77", st.R[3], st.R[4])
			}
			if got, _ := mem.Load(1016, 8); got != 77 {
				return fmt.Sprintf("mem[1016] = %d, want 77", got)
			}
			return ""
		}},
		{"page-crossing", func(b *guest.Builder) {
			b.Li(1, guest.PageSize-3)
			b.Li(2, -1)
			b.St8(1, 0, 2)   // bytes 1021-1028, across the page boundary
			b.Ld2(3, 1, 2)   // 1023-1024
			b.Ld4(4, 1, 1)   // 1022-1025
			b.Ld8(5, 1, 1)   // 1022-1029
			b.FLd8(1, 1, -1) // 1020-1027
		}, func(st *guest.State, mem *guest.Memory) string {
			if st.R[3] != 0xffff || st.R[4] != 0xffff_ffff || st.R[5] != 0x00ff_ffff_ffff_ffff {
				return fmt.Sprintf("r3, r4, r5 = %#x, %#x, %#x, want 0xffff, 0xffffffff, 0xffffffffffffff",
					st.R[3], st.R[4], st.R[5])
			}
			if got := math.Float64bits(st.F[1]); got != 0xffff_ffff_ffff_ff00 {
				return fmt.Sprintf("f1 bits %#x, want 0xffffffffffffff00", got)
			}
			return ""
		}},
	}
	for _, c := range cases {
		for _, m := range hwModes {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				b := guest.NewBuilder()
				b.NewBlock()
				c.build(b)
				b.Halt()
				seq, reg, insts, err := fuzzSchedule(b.MustProgram(), 0, m.mode, m.regs)
				if err != nil {
					t.Fatal(err)
				}
				cr := vliw.DefaultConfig().Compile(seq, reg, insts)
				stRef, stDec := &guest.State{}, &guest.State{}
				memRef, memDec := guest.NewMemory(1<<12), guest.NewMemory(1<<12)
				resRef := vliw.ExecuteRef(seq, reg, stRef, memRef, m.det())
				resDec := vliw.Execute(cr, stDec, memDec, m.det())
				if resDec.Outcome != vliw.Commit || resDec.Outcome != resRef.Outcome ||
					resDec.OpsExecuted != resRef.OpsExecuted || resDec.NextBlock != resRef.NextBlock {
					t.Fatalf("decoded %+v, reference %+v, want matching commits", resDec, resRef)
				}
				for r := 0; r < guest.NumRegs; r++ {
					if stDec.R[r] != stRef.R[r] || math.Float64bits(stDec.F[r]) != math.Float64bits(stRef.F[r]) {
						t.Errorf("r%d/f%d = %d/%#x, reference %d/%#x", r, r, stDec.R[r],
							math.Float64bits(stDec.F[r]), stRef.R[r], math.Float64bits(stRef.F[r]))
					}
				}
				if memDec.Digest() != memRef.Digest() {
					t.Error("memory digest diverged from the reference")
				}
				if msg := c.check(stDec, memDec); msg != "" {
					t.Error(msg)
				}
			})
		}
	}
}
