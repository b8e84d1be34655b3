package vliw_test

import (
	"fmt"
	"math"
	"testing"

	"smarq/internal/aliashw"
	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/sched"
	"smarq/internal/vliw"
	"smarq/internal/workload"
)

// TestBakeListsAndFoldsMatchReferenceOnFigures is the baked engine's
// differential over every figure workload: under each alias hardware at
// 16, 64 and 100 registers (the bit mask capped at its 15), every hot
// block's region is compiled and baked, and two copies of the guest run
// in lockstep from the program entry — one entering regions through the
// baked engine, one through the reference executor over the
// address-level detector. Every region entry must agree on outcome, next
// block, conflict identity, Checked, ARHighWater, OpsExecuted,
// StoresBuffered and every register; interpreted blocks keep both copies
// in step, and the memories must match at the end.
func TestBakeListsAndFoldsMatchReferenceOnFigures(t *testing.T) {
	type hw struct {
		mode sched.HWMode
		regs int
		det  func() aliashw.Detector
	}
	var hws []hw
	seen := map[aliashw.HW]bool{}
	for _, regs := range []int{16, 64, 100} {
		for _, h := range []hw{
			{sched.HWOrdered, regs, func() aliashw.Detector { return aliashw.NewOrderedQueue(regs) }},
			{sched.HWBitmask, regs, func() aliashw.Detector { return aliashw.NewBitmask(regs) }},
			{sched.HWALAT, regs, func() aliashw.Detector { return aliashw.NewALAT() }},
			{sched.HWNone, regs, func() aliashw.Detector { return aliashw.None{} }},
		} {
			if k := h.det().HW(); !seen[k] {
				seen[k] = true
				hws = append(hws, h)
			}
		}
	}
	budget := uint64(400_000)
	if testing.Short() {
		budget = 100_000
	}
	outcomes := map[vliw.Outcome]int{}
	var folded, ops int
	for _, bm := range workload.Suite() {
		prog := bm.Build()
		prof := interp.New(prog, &guest.State{}, guest.NewMemory(bm.MemSize))
		if _, err := prof.Run(0, budget); err != nil {
			t.Fatalf("%s: profile: %v", bm.Name, err)
		}
		for _, h := range hws {
			det := h.det()
			tag := fmt.Sprintf("%s/%s", bm.Name, det.Name())
			optCfg := opt.Config{LoadElim: true, StoreElim: true}
			if h.mode == sched.HWOrdered || h.mode == sched.HWBitmask {
				optCfg.Speculative = true
			}
			type region struct {
				cr  *vliw.CompiledRegion
				seq []*ir.Op
				reg *ir.Region
			}
			code := make([]*region, len(prog.Blocks))
			for id := range prog.Blocks {
				if !prof.Prof.Hot(id, 50) {
					continue
				}
				seq, reg, insts, err := scheduleRegion(prog, prof.Prof, id, h.mode, h.regs, optCfg)
				if err != nil {
					continue
				}
				cr := vliw.DefaultConfig().Compile(seq, reg, insts)
				cr.Bake(det.HW())
				if err := cr.Validate(); err != nil {
					t.Fatalf("%s: B%d: baked region fails Validate: %v", tag, id, err)
				}
				for _, i := range vliw.Dropped(cr) {
					if seq[i].Kind == ir.Arith {
						folded++
					}
				}
				ops += cr.Ops()
				code[id] = &region{cr, seq, reg}
			}

			stA, stB := &guest.State{}, &guest.State{}
			memA, memB := guest.NewMemory(bm.MemSize), guest.NewMemory(bm.MemSize)
			itA, itB := interp.New(prog, stA, memA), interp.New(prog, stB, memB)
			var ctx vliw.ExecContext
			detRef := h.det()
			entries := make([]int, len(prog.Blocks))
			id := prog.Entry
			for steps := uint64(0); id != interp.HaltID && steps < budget; steps++ {
				if r := code[id]; r != nil && entries[id] < 64 {
					entries[id]++
					got := ctx.Execute(r.cr, stA, memA, det)
					want := vliw.ExecuteRef(r.seq, r.reg, stB, memB, detRef)
					if msg := sameResult(got, want, stA, stB); msg != "" {
						t.Fatalf("%s: B%d entry %d: %s", tag, id, entries[id], msg)
					}
					outcomes[got.Outcome]++
					if got.Outcome == vliw.Commit {
						id = got.NextBlock
						continue
					}
				}
				next, err := itA.RunBlock(id)
				nextB, errB := itB.RunBlock(id)
				if next != nextB || (err == nil) != (errB == nil) {
					t.Fatalf("%s: B%d: the interpreted copies diverged", tag, id)
				}
				if err != nil {
					break
				}
				id = next
			}
			if memA.Digest() != memB.Digest() {
				t.Fatalf("%s: memories diverged", tag)
			}
		}
	}
	if outcomes[vliw.Commit] == 0 || outcomes[vliw.AliasException] == 0 || outcomes[vliw.GuardFail] == 0 {
		t.Errorf("outcomes %v: want commits, alias exceptions and guard failures", outcomes)
	}
	if folded == 0 {
		t.Error("no op folded")
	}
	t.Logf("outcomes %v; %d of %d scheduled ops folded", outcomes, folded, ops)
}

// sameResult compares two region entries' results and guest registers.
func sameResult(got, want vliw.ExecResult, stA, stB *guest.State) string {
	if (got.Conflict == nil) != (want.Conflict == nil) || got.Conflict != nil && *got.Conflict != *want.Conflict {
		return fmt.Sprintf("conflict %v, reference %v", got.Conflict, want.Conflict)
	}
	got.Conflict, want.Conflict = nil, nil
	if got != want {
		return fmt.Sprintf("result %+v, reference %+v", got, want)
	}
	for r := 0; r < guest.NumRegs; r++ {
		if stA.R[r] != stB.R[r] || math.Float64bits(stA.F[r]) != math.Float64bits(stB.F[r]) {
			return fmt.Sprintf("r%d/f%d = %d/%v, reference %d/%v", r, r, stA.R[r], stA.F[r], stB.R[r], stB.F[r])
		}
	}
	return ""
}

// TestBakeFoldsOnlySafeIndexArithmetic bakes a hand schedule with three
// address chains, each a muli by 8 feeding an add that a memory op uses
// as its base, and a plain add feeding a load. A chain folds whole when its operands stay unchanged up
// to the memory op and its sum is no live-out. When the muli's
// multiplicand changes on the way, the muli stays and the add folds with
// the product as its index; when the sum is a live-out, or an add's
// operand changes on the way, nothing folds.
// Both engines must agree from a range of entry states.
func TestBakeFoldsOnlySafeIndexArithmetic(t *testing.T) {
	const v = ir.VReg(2 * guest.NumRegs)
	arith := func(id int, gop guest.Opcode, dst ir.VReg, imm int64, srcs ...ir.VReg) *ir.Op {
		return &ir.Op{ID: id, Kind: ir.Arith, GOp: gop, Dst: dst, Srcs: srcs, SrcFloat: make([]bool, len(srcs)),
			Imm: imm, AROffset: -1}
	}
	seq := []*ir.Op{
		// r1 changes between the muli and the load: only the add folds.
		arith(0, guest.Muli, v, 8, 1),
		arith(1, guest.Add, v+1, 0, 2, v),
		arith(2, guest.Addi, 1, 1, 1),
		{ID: 3, Kind: ir.Load, GOp: guest.Ld8, Dst: v + 2, Srcs: []ir.VReg{v + 1}, SrcFloat: []bool{false},
			Mem: &ir.MemInfo{Base: v + 1, Off: 8, Size: 8}, AROffset: -1},
		// Folds: the store computes r2 + r3<<3 + 0.
		arith(4, guest.Muli, v+3, 8, 3),
		arith(5, guest.Add, v+4, 0, 2, v+3),
		{ID: 6, Kind: ir.Store, GOp: guest.St8, Dst: ir.NoVReg, Srcs: []ir.VReg{v + 2, v + 4}, SrcFloat: []bool{false, false},
			Mem: &ir.MemInfo{Base: v + 4, Off: 0, Size: 8}, AROffset: -1},
		// The sum is r6's live-out value: nothing folds.
		arith(7, guest.Muli, v+5, 8, 4),
		arith(8, guest.Add, v+6, 0, 2, v+5),
		{ID: 9, Kind: ir.Load, GOp: guest.Ld8, Dst: v + 7, Srcs: []ir.VReg{v + 6}, SrcFloat: []bool{false},
			Mem: &ir.MemInfo{Base: v + 6, Off: 0, Size: 8}, AROffset: -1},
		// r2 changes between the add and the load: nothing folds.
		arith(10, guest.Add, v+8, 0, 2, 4),
		arith(11, guest.Addi, 2, 8, 2),
		{ID: 12, Kind: ir.Load, GOp: guest.Ld8, Dst: v + 9, Srcs: []ir.VReg{v + 8}, SrcFloat: []bool{false},
			Mem: &ir.MemInfo{Base: v + 8, Off: 0, Size: 8}, AROffset: -1},
	}
	reg := &ir.Region{NumVRegs: int(v) + 10, FinalTarget: 1}
	for r := 0; r < guest.NumRegs; r++ {
		reg.IntOut[r] = ir.LiveInInt(guest.Reg(r))
		reg.FloatOut[r] = ir.LiveInFloat(guest.Reg(r))
	}
	reg.IntOut[5], reg.IntOut[6], reg.IntOut[7], reg.IntOut[8] = v+2, v+6, v+7, v+9
	cr := vliw.DefaultConfig().Compile(seq, reg, len(seq))
	cr.Bake(aliashw.None{}.HW())
	if err := cr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := vliw.Dropped(cr); fmt.Sprint(got) != "[1 4 5]" {
		t.Fatalf("dropped schedule ops %v, want [1 4 5]", got)
	}
	var ctx vliw.ExecContext
	for seed := int64(0); seed < 16; seed++ {
		entry := &guest.State{}
		for r := 1; r <= 4; r++ {
			entry.R[r] = seed*8 + int64(r)
		}
		entry.R[2] = 1024
		diffEngines(t, fmt.Sprintf("seed %d", seed), &ctx, cr, seq, reg, entry, seed, func() aliashw.Detector { return aliashw.None{} })
	}
}
