package dynopt

import (
	"fmt"
	"testing"

	"smarq/internal/guest"
	"smarq/internal/interp"
)

// phasedBranchProgram is a hot loop whose branch flips during a first
// phase of `unsettled` iterations and then settles. While unsettled, every
// third iteration takes the branch off the hot path, and on exactly those
// iterations the hot path's load address lies outside guest memory. Once
// the region hoists that load above the guard, those entries fault and
// roll back: speculation-induced faults, which walk the region down the
// ladder (guard failures alone never demote; they drop a trace after a
// streak). After the phase ends the branch always stays on the hot path,
// so the demoted region runs cleanly and earns a promotion back.
func phasedBranchProgram(unsettled, total int64) *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock() // B0: init
	b.Li(1, 1024)
	b.Li(3, 0)
	b.Li(4, total)
	b.Li(13, 3)
	b.Li(14, unsettled)
	b.Li(17, 1)
	loop := b.NewBlock() // B1: loop head
	b.Div(10, 3, 13)
	b.Mul(10, 10, 13)
	b.Sub(10, 3, 10)  // i % 3
	b.Slt(11, 3, 14)  // i < unsettled
	b.Slt(10, 10, 17) // i%3 == 0
	b.And(16, 10, 11) // off the hot path
	b.Muli(20, 16, 1<<40)
	b.Addi(20, 20, 1024) // the load address: out of range when off
	// The guard's operand goes through a slow chain, so the load's
	// address is ready long before the guard resolves.
	b.Sub(15, 17, 16)
	b.Mul(15, 15, 17)
	b.Mul(15, 15, 17)
	b.Mul(15, 15, 17)
	b.Beq(15, 0, loop+2)
	b.NewBlock() // B2: hot path
	b.Ld8(8, 20, 0)
	b.Addi(8, 8, 1)
	b.St8(1, 0, 8)
	b.Add(5, 5, 8)
	b.Jmp(loop + 3)
	b.NewBlock() // B3: cold path
	b.Addi(5, 5, 7)
	b.NewBlock() // B4: latch
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// TestRegionRePromotion gives the ladder's promotion path a workload:
// through System.Run alone, the flipping phase demotes the loop region
// and the settled phase promotes it again, and the final state is
// bit-exact against the guest.Exec reference, inline and with background
// compile workers.
func TestRegionRePromotion(t *testing.T) {
	prog := phasedBranchProgram(3000, 40_000)
	const memSize = 1 << 16
	ref := interp.New(prog, &guest.State{}, guest.NewMemory(memSize))
	ref.Ref = true
	if halted, err := ref.Run(0, 50_000_000); err != nil || !halted {
		t.Fatalf("reference: halted=%v err=%v", halted, err)
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			cfg := ConfigSMARQ(64)
			cfg.Compile.Workers = workers
			cfg.CheckInvariants = true
			useStore(t, outputStoreBytes) // each arm compiles, on the pool when queued
			sys := New(prog, &guest.State{}, guest.NewMemory(memSize), cfg)
			if halted, err := sys.Run(50_000_000); err != nil || !halted {
				t.Fatalf("halted=%v err=%v", halted, err)
			}
			rec := sys.Stats.Recovery
			t.Logf("faults %d, guard fails %d, demotions %d, promotions %d, tiers %v, dispatches %v",
				sys.Stats.Faults, sys.Stats.GuardFails, rec.Demotions, rec.Promotions, rec.TierRegions, rec.TierDispatches)
			if sys.Stats.Faults == 0 || rec.Demotions == 0 {
				t.Fatalf("the flipping phase never demoted the region: %d faults, %d demotions", sys.Stats.Faults, rec.Demotions)
			}
			if rec.Promotions == 0 {
				t.Fatalf("the settled phase never promoted the region: %+v", rec)
			}
			if *sys.State() != *ref.St || sys.Mem().Digest() != ref.Mem.Digest() {
				t.Error("final state differs from the reference")
			}
		})
	}
}
