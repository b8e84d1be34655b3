package dynopt

import (
	"math/rand"
	"os"
	"testing"
	"unsafe"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/workload"
)

// chaosCase is one (program, memory, budget) the soak runs under injected
// faults.
type chaosCase struct {
	name     string
	memSize  int
	maxInsts uint64
	build    func() *guest.Program
}

func chaosCases(t *testing.T) []chaosCase {
	var cases []chaosCase
	names := map[string]bool{"swim": true, "mgrid": true, "equake": true, "mesa": true}
	full := os.Getenv("SMARQ_CHAOS_FULL") != ""
	for _, b := range workload.Suite() {
		if !full && !names[b.Name] {
			continue
		}
		cases = append(cases, chaosCase{name: b.Name, memSize: b.MemSize, maxInsts: b.MaxInsts, build: b.Build})
	}
	fuzzTrials := 4
	if full {
		fuzzTrials = 20
	}
	for i := 0; i < fuzzTrials; i++ {
		seed := int64(7000 + i)
		cases = append(cases, chaosCase{
			name:     "fuzz" + string(rune('A'+i%26)),
			memSize:  1 << 14,
			maxInsts: 3_000_000,
			build: func() *guest.Program {
				return randomProgram(rand.New(rand.NewSource(seed)))
			},
		})
	}
	return cases
}

// TestChaosSoak is the recovery system's end-to-end guarantee: under the
// standard chaos mix (spurious alias exceptions, guard-fail storms,
// simulated compile failures — no state corruption) and with the rollback
// invariant checker always on, every workload and fuzz program must
//
//  1. halt with the architectural state the reference interpreter
//     computes, bit for bit;
//  2. settle every region in a bounded number of ladder moves (the
//     exponential-backoff livelock bound);
//  3. keep recovery overhead bounded — rollback stall cycles stay a
//     minority of total cycles even with faults on every path.
//
// Set SMARQ_CHAOS_FULL=1 for the full suite and more seeds/fuzz programs.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	seeds := []int64{1, 2}
	if os.Getenv("SMARQ_CHAOS_FULL") != "" {
		seeds = []int64{1, 2, 3, 4, 5}
	}
	cases := chaosCases(t)
	configs := map[string]Config{"smarq64": ConfigSMARQ(64), "alat": ConfigALAT()}

	for _, c := range cases {
		ref := interp.New(c.build(), &guest.State{}, guest.NewMemory(c.memSize))
		haltedRef, err := ref.Run(0, c.maxInsts)
		if err != nil || !haltedRef {
			t.Fatalf("%s: reference run: halted=%v err=%v", c.name, haltedRef, err)
		}
		for cname, base := range configs {
			for _, seed := range seeds {
				cfg := base
				cfg.Chaos = faultinject.Default(seed)
				cfg.CheckInvariants = true
				sys := New(c.build(), &guest.State{}, guest.NewMemory(c.memSize), cfg)
				halted, err := sys.Run(c.maxInsts)
				if err != nil {
					t.Fatalf("%s/%s/seed%d: %v", c.name, cname, seed, err)
				}
				if !halted {
					t.Fatalf("%s/%s/seed%d: did not halt", c.name, cname, seed)
				}

				// 1. Exact architectural state.
				for r := 0; r < guest.NumRegs; r++ {
					if sys.State().R[r] != ref.St.R[r] {
						t.Fatalf("%s/%s/seed%d: r%d = %d, interpreter got %d",
							c.name, cname, seed, r, sys.State().R[r], ref.St.R[r])
					}
					if sys.State().F[r] != ref.St.F[r] {
						t.Fatalf("%s/%s/seed%d: f%d = %v, interpreter got %v",
							c.name, cname, seed, r, sys.State().F[r], ref.St.F[r])
					}
				}
				for a := 0; a < c.memSize; a += 8 {
					got, _ := sys.Mem().Load(uint64(a), 8)
					want, _ := ref.Mem.Load(uint64(a), 8)
					if got != want {
						t.Fatalf("%s/%s/seed%d: mem[%#x] = %#x, interpreter got %#x",
							c.name, cname, seed, a, got, want)
					}
				}

				// 2. Livelock bound: every region settles in bounded moves.
				bound := 2 * maxDemotionsBound(regionPolicy)
				for _, rs := range sys.Stats.Regions {
					if rs.Demotions+rs.Promotions > bound {
						t.Errorf("%s/%s/seed%d: region B%d made %d ladder moves, bound %d",
							c.name, cname, seed, rs.Entry, rs.Demotions+rs.Promotions, bound)
					}
				}
				if sys.Stats.Recovery.InvariantViolations != 0 {
					t.Errorf("%s/%s/seed%d: %d invariant violations with corruption off",
						c.name, cname, seed, sys.Stats.Recovery.InvariantViolations)
				}

				// 3. Bounded recovery overhead.
				if tc := sys.Stats.TotalCycles; tc > 0 && sys.Stats.RollbackCycles > tc/2 {
					t.Errorf("%s/%s/seed%d: rollback cycles %d exceed half of %d total",
						c.name, cname, seed, sys.Stats.RollbackCycles, tc)
				}
			}
		}
	}
}

// TestChaosDeterministicReplay: two runs with the same seed inject the
// same faults and land on identical statistics — the property that makes
// `smarq-run -chaos-seed N` reproduce a CI failure.
func TestChaosDeterministicReplay(t *testing.T) {
	run := func(seed int64) Stats {
		cfg := ConfigSMARQ(64)
		cfg.Chaos = faultinject.Default(seed)
		cfg.CheckInvariants = true
		sys := New(sumLoopProgram(3000), &guest.State{}, guest.NewMemory(1<<16), cfg)
		if halted, err := sys.Run(50_000_000); err != nil || !halted {
			t.Fatalf("seed %d: halted=%v err=%v", seed, halted, err)
		}
		return sys.Stats
	}
	a, b := run(17), run(17)
	if a.Injected != b.Injected {
		t.Errorf("same seed injected differently: %+v vs %+v", a.Injected, b.Injected)
	}
	if a.TotalCycles != b.TotalCycles || a.Commits != b.Commits ||
		a.AliasExceptions != b.AliasExceptions || a.Recovery.Demotions != b.Recovery.Demotions {
		t.Errorf("same seed produced different runs: %+v vs %+v", a, b)
	}
	c := run(18)
	if a.Injected == c.Injected && a.TotalCycles == c.TotalCycles {
		t.Error("different seeds produced identical runs (injection may be inert)")
	}
}

// chaosSink keeps the allocation pins' results alive.
var chaosSink any

// TestNewChaosAllocs pins what chaos costs a new System: New with the
// default chaos mix allocates no more than New without chaos, plus the
// injector itself, one allocation of a few hundred bytes that holds no
// draw state. A region's draw ordinals come with its first draw.
func TestNewChaosAllocs(t *testing.T) {
	prog := sumLoopProgram(10)
	st, mem := &guest.State{}, guest.NewMemory(1<<16)
	plain := ConfigSMARQ(64)
	chaos := plain
	chaos.Chaos = faultinject.Default(3)
	chaosSink = New(prog, st, mem, plain) // decode and resolve pools once
	withoutChaos := testing.AllocsPerRun(100, func() { chaosSink = New(prog, st, mem, plain) })
	withChaos := testing.AllocsPerRun(100, func() { chaosSink = New(prog, st, mem, chaos) })
	injector := testing.AllocsPerRun(100, func() { chaosSink = faultinject.New(chaos.Chaos) })
	if size := unsafe.Sizeof(faultinject.Injector{}); injector != 1 || size > 256 {
		t.Errorf("faultinject.New allocates %v times, a %d-byte injector; want once, at most 256 bytes", injector, size)
	}
	if withChaos > withoutChaos+injector {
		t.Errorf("New allocates %v times with chaos, %v without: more than the injector's %v",
			withChaos, withoutChaos, injector)
	}
}
