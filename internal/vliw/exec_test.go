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
// builds for it.
var hwModes = []struct {
	name string
	mode sched.HWMode
	det  func() aliashw.Detector
}{
	{"ordered64", sched.HWOrdered, func() aliashw.Detector { return aliashw.NewOrderedQueue(64) }},
	{"alat", sched.HWALAT, func() aliashw.Detector { return aliashw.NewALAT() }},
	{"bitmask15", sched.HWBitmask, func() aliashw.Detector { return aliashw.NewBitmask(15) }},
	{"none", sched.HWNone, func() aliashw.Detector { return aliashw.None{} }},
}

// TestExecuteZeroAllocsOnCommit pins the steady-state commit path of the
// pooled execution engine at zero heap allocations under every alias
// hardware mode, each with the detector dynopt builds for it: after one
// warm-up entry (which sizes the vreg files and undo log), a
// full Begin/execute/Commit region entry must not touch the heap. Each
// mode runs two regions: a straight-line block ending in halt, and the
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
				seq, reg, insts, err := fuzzSchedule(b.MustProgram(), seed, m.mode)
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
// hardware mode up to the schedule, mirroring scheduleGuest but returning
// errors so the fuzz loop can skip unformable regions.
func fuzzSchedule(prog *guest.Program, seedBlock int, mode sched.HWMode) ([]*ir.Op, *ir.Region, int, error) {
	it := interp.New(prog, &guest.State{}, guest.NewMemory(1<<13))
	if _, err := it.Run(0, 200_000); err != nil {
		return nil, nil, 0, err
	}
	sb, err := region.Form(prog, it.Prof, seedBlock, region.DefaultConfig())
	if err != nil {
		return nil, nil, 0, err
	}
	reg, err := xlate.TranslateArena(sb, ir.NewArena())
	if err != nil {
		return nil, nil, 0, err
	}
	tbl := alias.BuildTable(reg, nil)
	optCfg := opt.Config{}
	if mode == sched.HWOrdered {
		optCfg = opt.Config{LoadElim: true, StoreElim: true, Speculative: true}
	}
	optRes := opt.Run(reg, tbl, optCfg)
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	nar := 64
	if mode == sched.HWBitmask {
		nar = 15
	}
	sc, err := sched.Run(reg, tbl, ds, sched.Config{
		Mode: mode, NumAliasRegs: nar, StoreReorder: true,
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
		if rng.Intn(24) == 0 {
			st.R[r] = 1 << 40 // faulting base
		}
	}
	if rng.Intn(3) == 0 { // force a genuine alias between two bases
		st.R[1+rng.Intn(4)] = st.R[1+rng.Intn(4)]
	}
	st.R[5] = int64(rng.Intn(4)) // loop counter
	st.R[7] = int64(rng.Intn(8)) // limit: counter >= limit fails the guard
	return st
}

func fillMem(mem *guest.Memory, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 128; i++ {
		_ = mem.Store(uint64(rng.Intn(1<<10))*8, 8, uint64(rng.Int63()))
	}
}

// TestExecuteDecodedMatchesReference is the differential test between the
// decoded pooled engine (ExecContext.Execute) and the original
// ir.Op-walking executor (executeRef, run on the schedule the region was
// compiled from): on random compiled programs across
// all hardware modes and randomized entry states, both engines must agree
// op-for-op — outcome, next block, conflict identity, ops executed, final
// registers, memory contents, and the detector's Checked() energy proxy.
func TestExecuteDecodedMatchesReference(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 5
	}
	// One persistent context across every trial, mode, and entry:
	// exercises pooling hygiene (stale vregs, undo log, checkpoint reuse).
	var ctx vliw.ExecContext
	outcomes := map[vliw.Outcome]int{}

	for trial := 0; trial < trials; trial++ {
		seed := int64(4000 + trial)
		for _, m := range hwModes {
			// Rebuild the program per mode: translation annotates it.
			prog, loop := randomRegionProgram(rand.New(rand.NewSource(seed)))
			seq, reg, insts, err := fuzzSchedule(prog, loop, m.mode)
			if err != nil {
				t.Logf("trial %d/%s: skip (compile: %v)", trial, m.name, err)
				continue
			}
			cr := vliw.DefaultConfig().Compile(seq, reg, insts)
			rng := rand.New(rand.NewSource(seed * 31))
			for entry := 0; entry < 6; entry++ {
				stRef := randExecState(rng)
				stDec := *stRef
				memRef := guest.NewMemory(1 << 13)
				memDec := guest.NewMemory(1 << 13)
				fillMem(memRef, seed+int64(entry))
				fillMem(memDec, seed+int64(entry))
				detRef, detDec := m.det(), m.det()

				resRef := vliw.ExecuteRef(seq, reg, stRef, memRef, detRef)
				resDec := ctx.Execute(cr, &stDec, memDec, detDec)
				outcomes[resDec.Outcome]++

				id := func() string { return m.name }
				if resDec.Outcome != resRef.Outcome {
					t.Fatalf("trial %d/%s entry %d: outcome %s, reference %s",
						trial, id(), entry, resDec.Outcome, resRef.Outcome)
				}
				if resDec.NextBlock != resRef.NextBlock || resDec.OpsExecuted != resRef.OpsExecuted {
					t.Fatalf("trial %d/%s entry %d: next/ops = %d/%d, reference %d/%d",
						trial, id(), entry, resDec.NextBlock, resDec.OpsExecuted,
						resRef.NextBlock, resRef.OpsExecuted)
				}
				if (resDec.Conflict == nil) != (resRef.Conflict == nil) {
					t.Fatalf("trial %d/%s entry %d: conflict %v, reference %v",
						trial, id(), entry, resDec.Conflict, resRef.Conflict)
				}
				if resDec.Conflict != nil && *resDec.Conflict != *resRef.Conflict {
					t.Fatalf("trial %d/%s entry %d: conflict %+v, reference %+v",
						trial, id(), entry, *resDec.Conflict, *resRef.Conflict)
				}
				for r := 0; r < guest.NumRegs; r++ {
					if stDec.R[r] != stRef.R[r] || stDec.F[r] != stRef.F[r] {
						t.Fatalf("trial %d/%s entry %d: r%d/f%d = %d/%v, reference %d/%v",
							trial, id(), entry, r, r, stDec.R[r], stDec.F[r], stRef.R[r], stRef.F[r])
					}
				}
				if memDec.Digest() != memRef.Digest() {
					t.Fatalf("trial %d/%s entry %d: memory digest diverged", trial, id(), entry)
				}
				if detDec.Checked() != detRef.Checked() {
					t.Fatalf("trial %d/%s entry %d: Checked() = %d, reference %d",
						trial, id(), entry, detDec.Checked(), detRef.Checked())
				}
			}
		}
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
	t.Logf("outcomes: %v", outcomes)
}

// TestExecuteDecodedMatchesReferenceEdgeCases extends the differential to
// the operands the decoded op shares one word between: an FLi of -0.0
// and of a NaN with a payload (its immediate travels as a bit pattern)
// and memory ops at a negative offset (a signed offset in that word).
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
	}
	for _, c := range cases {
		for _, m := range hwModes {
			t.Run(c.name+"/"+m.name, func(t *testing.T) {
				b := guest.NewBuilder()
				b.NewBlock()
				c.build(b)
				b.Halt()
				seq, reg, insts, err := fuzzSchedule(b.MustProgram(), 0, m.mode)
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
