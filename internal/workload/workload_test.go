package workload

import (
	"sync"
	"testing"

	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/interp"
)

func TestSuiteValidatesAndHalts(t *testing.T) {
	for _, bm := range Suite() {
		t.Run(bm.Name, func(t *testing.T) {
			prog := bm.Build()
			if err := prog.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			it := interp.New(prog, &guest.State{}, guest.NewMemory(bm.MemSize))
			halted, err := it.Run(0, bm.MaxInsts)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !halted {
				t.Fatalf("did not halt within %d insts (used %d)", bm.MaxInsts, it.DynInsts)
			}
			t.Logf("%s: %d dynamic guest instructions", bm.Name, it.DynInsts)
		})
	}
}

func TestSuiteIsDeterministic(t *testing.T) {
	for _, bm := range Suite() {
		run := func() (uint64, uint64) {
			prog := bm.Build()
			mem := guest.NewMemory(bm.MemSize)
			it := interp.New(prog, &guest.State{}, mem)
			if _, err := it.Run(0, bm.MaxInsts); err != nil {
				t.Fatal(err)
			}
			cs, _ := mem.Load(out, 8)
			return it.DynInsts, cs
		}
		n1, c1 := run()
		n2, c2 := run()
		if n1 != n2 || c1 != c2 {
			t.Errorf("%s: non-deterministic (%d/%d insts, %#x/%#x checksum)", bm.Name, n1, n2, c1, c2)
		}
	}
}

// TestSuiteDifferential is the suite-wide correctness gate: every
// benchmark computes the same final memory and registers under the
// dynamic optimization system as under pure interpretation, for the
// primary SMARQ configuration and the most divergent others.
func TestSuiteDifferential(t *testing.T) {
	configs := map[string]dynopt.Config{
		"smarq64":  dynopt.ConfigSMARQ(64),
		"smarq16":  dynopt.ConfigSMARQ(16),
		"alat":     dynopt.ConfigALAT(),
		"efficeon": dynopt.ConfigEfficeon(),
		"nohw":     dynopt.ConfigNoHW(),
	}
	for _, bm := range Suite() {
		// Reference.
		prog := bm.Build()
		refMem := guest.NewMemory(bm.MemSize)
		ref := interp.New(prog, &guest.State{}, refMem)
		if halted, err := ref.Run(0, bm.MaxInsts); err != nil || !halted {
			t.Fatalf("%s reference: halted=%v err=%v", bm.Name, halted, err)
		}
		for cname, cfg := range configs {
			t.Run(bm.Name+"/"+cname, func(t *testing.T) {
				sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
				halted, err := sys.Run(bm.MaxInsts)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if !halted {
					t.Fatalf("did not halt (retired %d)", sys.Stats.GuestInsts)
				}
				for r := 0; r < guest.NumRegs; r++ {
					if sys.State().R[r] != ref.St.R[r] {
						t.Errorf("r%d = %d, interpreter got %d", r, sys.State().R[r], ref.St.R[r])
					}
					if sys.State().F[r] != ref.St.F[r] {
						t.Errorf("f%d = %v, interpreter got %v", r, sys.State().F[r], ref.St.F[r])
					}
				}
				for a := 0; a < bm.MemSize; a += 8 {
					got, _ := sys.Mem().Load(uint64(a), 8)
					want, _ := refMem.Load(uint64(a), 8)
					if got != want {
						t.Fatalf("mem[%#x] = %#x, interpreter got %#x", a, got, want)
					}
				}
				if sys.Stats.Commits == 0 {
					t.Error("no region ever committed")
				}
			})
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("ammp"); !ok {
		t.Error("ammp missing")
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("found a benchmark that should not exist")
	}
	names := map[string]bool{}
	for _, bm := range Suite() {
		if names[bm.Name] {
			t.Errorf("duplicate benchmark %s", bm.Name)
		}
		names[bm.Name] = true
		if bm.Description == "" {
			t.Errorf("%s has no description", bm.Name)
		}
	}
	if len(names) != 14 {
		t.Errorf("suite has %d benchmarks, want 14", len(names))
	}
}

// TestAmmpHasLargeSuperblocks checks the trait the paper attributes to
// ammp: far more memory operations per superblock than the rest of the
// suite (Figure 14).
func TestAmmpHasLargeSuperblocks(t *testing.T) {
	maxMem := func(name string) int {
		bm, _ := ByName(name)
		sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), dynopt.ConfigSMARQ(64))
		if _, err := sys.Run(bm.MaxInsts); err != nil {
			t.Fatal(err)
		}
		max := 0
		for _, r := range sys.Stats.Regions {
			if r.MemOps > max {
				max = r.MemOps
			}
		}
		return max
	}
	ammp := maxMem("ammp")
	swim := maxMem("swim")
	if ammp < 30 {
		t.Errorf("ammp max mem ops per superblock = %d, want >= 30", ammp)
	}
	if ammp <= swim {
		t.Errorf("ammp (%d) should exceed swim (%d) in mem ops per superblock", ammp, swim)
	}
}

// TestSuiteScaled: scaled benchmarks retire proportionally more
// instructions, stay deterministic, and scale 1 is the plain suite.
func TestSuiteScaled(t *testing.T) {
	if len(SuiteScaled(1)) != 14 || len(SuiteScaled(4)) != 14 {
		t.Fatal("scaled suite size wrong")
	}
	base, _ := ByName("mgrid")
	var scaled Benchmark
	for _, bm := range SuiteScaled(4) {
		if bm.Name == "mgrid" {
			scaled = bm
		}
	}
	run := func(bm Benchmark) uint64 {
		it := interp.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize))
		halted, err := it.Run(0, bm.MaxInsts)
		if err != nil || !halted {
			t.Fatalf("%s: halted=%v err=%v", bm.Name, halted, err)
		}
		return it.DynInsts
	}
	n1, n4 := run(base), run(scaled)
	// The hot loop dominates, so x4 sweeps lands near x4 instructions.
	if n4 < 3*n1 || n4 > 5*n1 {
		t.Errorf("scaled mgrid ran %d insts vs %d — not ~4x", n4, n1)
	}
}

// TestOverheadAmortizesWithScale is Figure 18's claim measured directly:
// the optimizer's share of execution drops as the run lengthens, because
// translation is one-time work.
func TestOverheadAmortizesWithScale(t *testing.T) {
	overhead := func(bm Benchmark) float64 {
		sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), dynopt.ConfigSMARQ(64))
		if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
			t.Fatalf("halted=%v err=%v", halted, err)
		}
		return float64(sys.Stats.OptCycles+sys.Stats.SchedCycles) / float64(sys.Stats.TotalCycles)
	}
	short, _ := ByName("swim")
	var long Benchmark
	for _, bm := range SuiteScaled(8) {
		if bm.Name == "swim" {
			long = bm
		}
	}
	oShort, oLong := overhead(short), overhead(long)
	if oLong >= oShort/2 {
		t.Errorf("overhead did not amortize: short %.4f, 8x run %.4f", oShort, oLong)
	}
}

// TestBuildShared pins the build-once contract: every Benchmark value of
// one (name, scale) pair, from any Suite, SuiteScaled or ByName call,
// returns the same *guest.Program, built once even when raced from many
// goroutines; another scale is another program.
func TestBuildShared(t *testing.T) {
	for _, scale := range []int64{1, 3} {
		a, b := SuiteScaled(scale), SuiteScaled(scale)
		progs := make([]*guest.Program, len(a))
		var wg sync.WaitGroup
		for i := range a {
			wg.Add(1)
			go func() {
				defer wg.Done()
				progs[i] = a[i].Build()
			}()
		}
		wg.Wait()
		for i := range a {
			if b[i].Build() != progs[i] || a[i].Build() != progs[i] {
				t.Errorf("scale %d: %s: two suites build different programs", scale, a[i].Name)
			}
			named, ok := ByNameScaled(a[i].Name, scale)
			if !ok || named.Build() != progs[i] {
				t.Errorf("scale %d: ByNameScaled(%q) builds a different program", scale, a[i].Name)
			}
		}
	}
	for i, bm := range Suite() {
		if named, _ := ByName(bm.Name); named.Build() != bm.Build() {
			t.Errorf("ByName(%q) builds a different program than Suite()", bm.Name)
		}
		if SuiteScaled(0)[i].Build() != bm.Build() {
			t.Errorf("%s: SuiteScaled(0) is not Suite()", bm.Name)
		}
		if SuiteScaled(3)[i].Build() == bm.Build() {
			t.Errorf("%s: scales 1 and 3 share a program", bm.Name)
		}
	}
	// Callers own the returned slice: editing it leaves the suite intact.
	s := Suite()
	s[0].Name = "edited"
	if Suite()[0].Name == "edited" {
		t.Error("Suite hands out the shared slice")
	}
}
