package core

import (
	"math/rand"
	"strings"
	"testing"

	"smarq/internal/ir"
)

// seqOf arranges ops in the given schedule order.
func seqOf(ops []*ir.Op, order ...int) []*ir.Op {
	out := make([]*ir.Op, len(order))
	for i, id := range order {
		out[i] = ops[id]
	}
	return out
}

func TestBitmaskBasic(t *testing.T) {
	// Loads 1,3 hoisted above stores 0,2; store 0 checks both, store 2
	// checks 3 only.
	ops := mkOps("SLSL")
	ds := mkDeps(dep(0, 1), dep(0, 3), dep(2, 3))
	res, err := AllocateBitmask(seqOf(ops, 1, 3, 0, 2), ds, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !ops[1].P || !ops[3].P {
		t.Error("checkees lack P bits")
	}
	if ops[1].AROffset == ops[3].AROffset {
		t.Error("overlapping live ranges share a register")
	}
	if !ops[0].C || !ops[2].C {
		t.Error("checkers lack C bits")
	}
	want0 := uint16(1<<uint(ops[1].AROffset) | 1<<uint(ops[3].AROffset))
	if ops[0].ARMask != want0 {
		t.Errorf("store 0 mask = %#x, want %#x", ops[0].ARMask, want0)
	}
	if ops[2].ARMask != 1<<uint(ops[3].AROffset) {
		t.Errorf("store 2 mask = %#x, want only op3's register", ops[2].ARMask)
	}
	if res.Stats.Checks != 3 || res.Stats.PBits != 2 || res.Stats.CBits != 2 {
		t.Errorf("stats = %+v", res.Stats)
	}
	if res.Stats.WorkingSet != 2 {
		t.Errorf("working set = %d, want 2", res.Stats.WorkingSet)
	}
}

func TestBitmaskRegisterReuse(t *testing.T) {
	// Disjoint live ranges reuse the same register: L S L S with each
	// load checked only by its own store.
	ops := mkOps("SLSL")
	ds := mkDeps(dep(0, 1), dep(2, 3))
	res, err := AllocateBitmask(seqOf(ops, 1, 0, 3, 2), ds, 15)
	if err != nil {
		t.Fatal(err)
	}
	if ops[1].AROffset != ops[3].AROffset {
		t.Error("disjoint live ranges did not reuse the register")
	}
	if res.Stats.WorkingSet != 1 {
		t.Errorf("working set = %d, want 1", res.Stats.WorkingSet)
	}
}

func TestBitmaskOverflow(t *testing.T) {
	// 16 loads all live across one store: cannot fit 15 named registers.
	kinds := "S" + strings.Repeat("L", 16)
	ops := mkOps(kinds)
	var sd []int
	ds := mkDeps()
	for i := 1; i <= 16; i++ {
		ds.Add(dep(0, i))
		sd = append(sd, i)
	}
	sd = append(sd, 0)
	_, err := AllocateBitmask(seqOf(ops, sd...), ds, 15)
	if err == nil {
		t.Fatal("16 concurrent live ranges fit in 15 registers?!")
	}
	if !strings.Contains(err.Error(), "15") {
		t.Errorf("error %v does not mention the register cap", err)
	}
}

func TestBitmaskCapsAtEncodingLimit(t *testing.T) {
	// Asking for 64 registers silently caps at 15 (the encoding wall).
	kinds := "S" + strings.Repeat("L", 16)
	ops := mkOps(kinds)
	ds := mkDeps()
	var sd []int
	for i := 1; i <= 16; i++ {
		ds.Add(dep(0, i))
		sd = append(sd, i)
	}
	sd = append(sd, 0)
	if _, err := AllocateBitmask(seqOf(ops, sd...), ds, 64); err == nil {
		t.Error("encoding cap not enforced")
	}
}

func TestBitmaskBackwardDeps(t *testing.T) {
	// Elimination-style backward dep: program order, store checks the
	// earlier load's register.
	ops := mkOps("LS")
	ds := mkDeps(xdep(1, 0))
	_, err := AllocateBitmask(seqOf(ops, 0, 1), ds, 15)
	if err != nil {
		t.Fatal(err)
	}
	if !ops[0].P || !ops[1].C {
		t.Error("backward-dep check not derived")
	}
	if ops[1].ARMask != 1<<uint(ops[0].AROffset) {
		t.Error("mask does not select the source's register")
	}
}

func TestBitmaskNoChecksNoRegisters(t *testing.T) {
	ops := mkOps("LSLS")
	res, err := AllocateBitmask(seqOf(ops, 0, 1, 2, 3), mkDeps(), 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PBits != 0 || res.Stats.WorkingSet != 0 {
		t.Errorf("unexpected allocation: %+v", res.Stats)
	}
}

// TestBitmaskLiveRangesNeverShareARegister checks the linear scan on
// random schedules: a checkee's live range runs from its own position to
// its last checker's, and two ranges that overlap must never hold the
// same named register, or a check would test the wrong access. Every
// checker's mask must name its checkee's register.
func TestBitmaskLiveRangesNeverShareARegister(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(24)
		kinds := make([]byte, n)
		for i := range kinds {
			kinds[i] = "LS"[rng.Intn(2)]
		}
		ops := mkOps(string(kinds))
		ds := mkDeps()
		for k := rng.Intn(3 * n); k > 0; k-- {
			ds.Add(dep(rng.Intn(n), rng.Intn(n)))
		}
		order := rng.Perm(n)
		if _, err := AllocateBitmask(seqOf(ops, order...), ds, 15); err != nil {
			continue // more simultaneous ranges than registers
		}
		pos := make([]int, n)
		for p, id := range order {
			pos[id] = p
		}
		end := make([]int, n)
		for i := range end {
			end[i] = -1
		}
		for _, d := range ds.All {
			if pos[d.Dst] < pos[d.Src] {
				end[d.Dst] = max(end[d.Dst], pos[d.Src])
				if !ops[d.Src].C || ops[d.Src].ARMask&(1<<uint(ops[d.Dst].AROffset)) == 0 {
					t.Fatalf("seed %d: checker %d does not check checkee %d's register", seed, d.Src, d.Dst)
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if end[a] < 0 || end[b] < 0 {
					continue
				}
				overlap := pos[a] <= end[b] && pos[b] <= end[a]
				if overlap && ops[a].AROffset == ops[b].AROffset {
					t.Fatalf("seed %d: overlapping live ranges of ops %d and %d share register %d", seed, a, b, ops[a].AROffset)
				}
			}
		}
	}
}
