package vliw_test

import (
	"testing"

	"smarq/internal/aliashw"
	"smarq/internal/guest"
	"smarq/internal/ir"
	"smarq/internal/sched"
	"smarq/internal/vliw"
)

// storeLoadLoop is a loop body with reorderable memory ops, a float round
// trip and a loop-back guard: every decoded op kind a region commonly
// carries.
func storeLoadLoop(b *guest.Builder) {
	b.NewBlock()
	b.Li(1, 64)
	b.Li(2, 512)
	b.Li(3, 0)
	b.Li(4, 40)
	loop := b.NewBlock()
	b.St8(1, 0, 3)
	b.Ld8(5, 2, 8)
	b.Addi(5, 5, 3)
	b.FLi(1, 1.5)
	b.FSt8(2, 16, 1)
	b.FLd8(2, 1, 24)
	b.St8(2, 0, 5)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
}

// entryState is a region-entry state for storeLoadLoop's loop block.
func entryState() *guest.State {
	st := &guest.State{}
	st.R[1], st.R[2], st.R[3], st.R[4] = 64, 512, 0, 40
	return st
}

// TestCompileRetainsNoIR pins the install contract: a CompiledRegion
// keeps no reference into the IR it was compiled from, so the compile
// pipeline may recycle its arena the moment Compile returns. Scribbling
// over every op and the region afterwards must change neither the
// checksum nor a single bit of what the region executes.
func TestCompileRetainsNoIR(t *testing.T) {
	seq, reg, insts, _ := scheduleGuest(t, 1, sched.HWOrdered, storeLoadLoop)
	cr := vliw.DefaultConfig().Compile(seq, reg, insts)
	cr.Bake(aliashw.NewOrderedQueue(64).HW())
	if err := cr.Validate(); err != nil {
		t.Fatal(err)
	}
	sum := cr.Checksum()
	run := func() (vliw.ExecResult, *guest.State, uint64) {
		st, mem := entryState(), guest.NewMemory(4096)
		res := vliw.Execute(cr, st, mem, aliashw.NewOrderedQueue(64))
		return res, st, mem.Digest()
	}
	wantRes, wantSt, wantMem := run()
	if wantRes.Outcome != vliw.Commit || wantRes.OpsExecuted != cr.Ops() || cr.Ops() != len(seq) {
		t.Fatalf("outcome %s after %d of %d ops, want a full commit", wantRes.Outcome, wantRes.OpsExecuted, len(seq))
	}

	for _, o := range append(append([]*ir.Op(nil), seq...), reg.Ops...) {
		*o = ir.Op{ID: -7, Kind: ir.AMov, Dst: 1 << 20, Imm: -1, AROffset: 99, P: true, C: true}
	}
	*reg = ir.Region{NumVRegs: 1, FinalTarget: -3}

	if got := cr.Checksum(); got != sum {
		t.Errorf("checksum moved from %#x to %#x after the IR was overwritten", sum, got)
	}
	if err := cr.Validate(); err != nil {
		t.Errorf("validation fails after the IR was overwritten: %v", err)
	}
	res, st, mem := run()
	if res != wantRes || *st != *wantSt || mem != wantMem {
		t.Errorf("execution changed after the IR was overwritten: %+v vs %+v", res, wantRes)
	}
}

// TestCorruptionIsCaught checks both injected poison modes against the two
// validation layers: structural corruption fails Validate, and the
// checksum-only corruption leaves Validate passing but moves the checksum.
func TestCorruptionIsCaught(t *testing.T) {
	compile := func() *vliw.CompiledRegion {
		seq, reg, insts, _ := scheduleGuest(t, 1, sched.HWOrdered, storeLoadLoop)
		return vliw.DefaultConfig().Compile(seq, reg, insts)
	}
	cr := compile()
	sum := cr.Checksum()
	if again := compile(); again.Checksum() != sum {
		t.Fatalf("checksum is not a function of content: %#x vs %#x", again.Checksum(), sum)
	}

	cr.Corrupt(true)
	if err := cr.Validate(); err == nil {
		t.Error("structural corruption passed Validate")
	}

	cr = compile()
	cr.Corrupt(false)
	if err := cr.Validate(); err != nil {
		t.Errorf("checksum-layer corruption should pass Validate, got %v", err)
	}
	if cr.Checksum() == sum {
		t.Error("checksum-layer corruption left the checksum unchanged")
	}
}

// TestCompileAllocations pins what installing a region costs the heap:
// the CompiledRegion and its decoded stream, nothing else (the cycle
// model's scratch is pooled and the IR is not copied).
func TestCompileAllocations(t *testing.T) {
	seq, reg, insts, _ := scheduleGuest(t, 1, sched.HWOrdered, storeLoadLoop)
	machine := vliw.DefaultConfig()
	machine.Compile(seq, reg, insts) // warm the scratch pool
	allocs := testing.AllocsPerRun(100, func() { machine.Compile(seq, reg, insts) })
	if allocs != 2 && !raceEnabled {
		t.Errorf("Compile allocates %v times, want 2", allocs)
	}
}
