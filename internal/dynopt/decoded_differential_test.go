package dynopt

import (
	"os"
	"reflect"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/workload"
)

// TestSystemDecodedInterpMatchesReference is the system-level half of the
// decoded-interpreter differential: two complete dynopt runs — one on the
// pre-decoded engine, one on the guest.Exec reference engine — must land
// on identical Stats, registers and memory across workloads, chaos seeds
// and compile worker counts. Since the interpreter drives profiling,
// region formation and every budget decision, any retirement or edge-count
// divergence between the engines would cascade into visibly different
// stats here.
func TestSystemDecodedInterpMatchesReference(t *testing.T) {
	names := map[string]bool{"swim": true, "equake": true, "ammp": true, "mesa": true}
	full := os.Getenv("SMARQ_CHAOS_FULL") != ""
	seeds := []int64{0, 7} // 0 = chaos off
	workers := []int{0, 2}

	for _, bm := range workload.Suite() {
		if !full && !names[bm.Name] {
			continue
		}
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range seeds {
				for _, w := range workers {
					run := func(ref bool) *System {
						cfg := ConfigSMARQ(64)
						if seed != 0 {
							cfg.Chaos = faultinject.Default(seed)
							cfg.CheckInvariants = true
						}
						cfg.Compile.Workers = w
						sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
						sys.it.Ref = ref
						halted, err := sys.Run(bm.MaxInsts)
						if err != nil || !halted {
							t.Fatalf("seed=%d workers=%d ref=%v: halted=%v err=%v", seed, w, ref, halted, err)
						}
						return sys
					}
					refSys := run(true)
					decSys := run(false)
					if !reflect.DeepEqual(decSys.Stats, refSys.Stats) {
						t.Fatalf("seed=%d workers=%d: stats diverged\ndecoded:  %+v\nreference: %+v",
							seed, w, decSys.Stats, refSys.Stats)
					}
					if *decSys.State() != *refSys.State() {
						t.Fatalf("seed=%d workers=%d: architectural state diverged", seed, w)
					}
					if d, r := decSys.Mem().Digest(), refSys.Mem().Digest(); d != r {
						t.Fatalf("seed=%d workers=%d: memory digest %#x, reference %#x", seed, w, d, r)
					}
				}
			}
		})
	}
}

// TestRunBudgetOvershootBounded pins System.Run's documented maxInsts
// contract: the budget is checked between dispatches, so one oversized
// block may overshoot the cap — by at most that block's size, never more.
func TestRunBudgetOvershootBounded(t *testing.T) {
	const bodySize = 800
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 1)
	loop := b.NewBlock()
	for i := 0; i < bodySize; i++ {
		b.Addi(2, 2, 1)
	}
	b.Jmp(loop)
	prog := b.MustProgram()
	blockInsts := int64(bodySize + 1)

	const budget = 100 // far below one block
	sys := New(prog, &guest.State{}, guest.NewMemory(64), ConfigSMARQ(64))
	halted, err := sys.Run(budget)
	if err != nil || halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if sys.Stats.GuestInsts < budget {
		t.Fatalf("GuestInsts=%d stopped below the budget %d", sys.Stats.GuestInsts, budget)
	}
	if max := budget + blockInsts; sys.Stats.GuestInsts > max {
		t.Fatalf("GuestInsts=%d overshoots budget %d by more than one block (max %d)",
			sys.Stats.GuestInsts, budget, max)
	}
}
