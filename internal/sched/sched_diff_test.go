package sched

import (
	"math/rand"
	"testing"

	"smarq/internal/alias"
	"smarq/internal/deps"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/vliw"
)

// randSpecs builds a deterministic pseudo-random op mix: loads, stores and
// arith chains over a small pool of root registers, so may-alias pairs,
// must-alias pairs and dependence chains all occur.
func randSpecs(rng *rand.Rand, n int) []spec {
	specs := make([]spec, n)
	for i := range specs {
		switch rng.Intn(4) {
		case 0:
			specs[i] = spec{'L', ir.VReg(1 + rng.Intn(4))}
		case 1:
			specs[i] = spec{'S', ir.VReg(1 + rng.Intn(4))}
		default:
			specs[i] = spec{'a', 0}
		}
	}
	// Guarantee at least one memory op so every mode has work to do.
	specs[0] = spec{'S', 1}
	return specs
}

// runOnce builds a fresh region from specs and runs the full sched-side
// pipeline through the given scheduler entry point. A fresh region per run
// is required: opt and the allocator annotate ops in place.
func runOnce(t *testing.T, specs []spec, cfg Config,
	run func(*ir.Region, *alias.Table, *deps.Set, Config) (*Schedule, error)) (*Schedule, *ir.Region, error) {
	t.Helper()
	reg := buildRegion(specs)
	tbl := alias.BuildTable(reg, nil)
	optRes := opt.Run(reg, tbl, opt.Config{LoadElim: true, StoreElim: true, Speculative: cfg.Mode != HWNone})
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	sc, err := run(reg, tbl, ds, cfg)
	return sc, reg, err
}

// TestRunMatchesReference differentially tests the CLZ-bitmap scheduler
// against the retained heap implementation: identical schedules, alias
// annotations, allocation orders, constraints and stats across hardware
// modes, register file sizes and random regions.
func TestRunMatchesReference(t *testing.T) {
	modes := []HWMode{HWNone, HWOrdered, HWALAT, HWBitmask}
	for _, mode := range modes {
		for _, numRegs := range []int{4, 8, 64} {
			for seed := int64(0); seed < 8; seed++ {
				cfg := Config{
					Mode:           mode,
					NumAliasRegs:   numRegs,
					StoreReorder:   seed%2 == 0,
					ForceNonSpec:   seed%3 == 0,
					PressureMargin: 4,
					Machine:        vliw.DefaultConfig(),
				}
				rng := rand.New(rand.NewSource(seed*131 + int64(mode)))
				specs := randSpecs(rng, 40+rng.Intn(60))

				got, gotReg, gotErr := runOnce(t, specs, cfg, Run)
				want, wantReg, wantErr := runOnce(t, specs, cfg, RunRef)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("mode=%d regs=%d seed=%d: err mismatch: %v vs %v", mode, numRegs, seed, gotErr, wantErr)
				}
				if gotErr != nil {
					if gotErr.Error() != wantErr.Error() {
						t.Fatalf("mode=%d regs=%d seed=%d: error text %q vs %q", mode, numRegs, seed, gotErr, wantErr)
					}
					continue
				}
				compareSchedules(t, got, want, mode, numRegs, seed)
				compareRegions(t, gotReg, wantReg, mode, numRegs, seed)
			}
		}
	}
}

func compareSchedules(t *testing.T, got, want *Schedule, mode HWMode, numRegs int, seed int64) {
	t.Helper()
	if got.NonSpecCycles != want.NonSpecCycles {
		t.Errorf("mode=%d regs=%d seed=%d: NonSpecCycles %d vs %d", mode, numRegs, seed, got.NonSpecCycles, want.NonSpecCycles)
	}
	if len(got.Seq) != len(want.Seq) {
		t.Fatalf("mode=%d regs=%d seed=%d: seq length %d vs %d", mode, numRegs, seed, len(got.Seq), len(want.Seq))
	}
	for i := range got.Seq {
		g, w := got.Seq[i], want.Seq[i]
		if g.ID != w.ID || g.Kind != w.Kind || g.AROffset != w.AROffset ||
			g.P != w.P || g.C != w.C || g.SrcOff != w.SrcOff || g.DstOff != w.DstOff ||
			g.Amount != w.Amount || g.ARMask != w.ARMask {
			t.Fatalf("mode=%d regs=%d seed=%d: seq[%d] differs:\n  got  %+v\n  want %+v", mode, numRegs, seed, i, *g, *w)
		}
	}
	if got.Alloc.Stats != want.Alloc.Stats {
		t.Errorf("mode=%d regs=%d seed=%d: stats %+v vs %+v", mode, numRegs, seed, got.Alloc.Stats, want.Alloc.Stats)
	}
	if len(got.Alloc.Order) != len(want.Alloc.Order) {
		t.Fatalf("mode=%d regs=%d seed=%d: order length %d vs %d", mode, numRegs, seed, len(got.Alloc.Order), len(want.Alloc.Order))
	}
	for id := range got.Alloc.Order {
		if got.Alloc.Order[id] != want.Alloc.Order[id] || got.Alloc.Base[id] != want.Alloc.Base[id] {
			t.Errorf("mode=%d regs=%d seed=%d: op %d order/base (%d,%d) vs (%d,%d)", mode, numRegs, seed,
				id, got.Alloc.Order[id], got.Alloc.Base[id], want.Alloc.Order[id], want.Alloc.Base[id])
		}
	}
	if len(got.Alloc.Checks) != len(want.Alloc.Checks) {
		t.Fatalf("mode=%d regs=%d seed=%d: %d checks vs %d", mode, numRegs, seed, len(got.Alloc.Checks), len(want.Alloc.Checks))
	}
	for i := range got.Alloc.Checks {
		if got.Alloc.Checks[i] != want.Alloc.Checks[i] {
			t.Errorf("mode=%d regs=%d seed=%d: check[%d] %v vs %v", mode, numRegs, seed, i, got.Alloc.Checks[i], want.Alloc.Checks[i])
		}
	}
	if len(got.Alloc.Antis) != len(want.Alloc.Antis) {
		t.Fatalf("mode=%d regs=%d seed=%d: %d antis vs %d", mode, numRegs, seed, len(got.Alloc.Antis), len(want.Alloc.Antis))
	}
	for i := range got.Alloc.Antis {
		if got.Alloc.Antis[i] != want.Alloc.Antis[i] {
			t.Errorf("mode=%d regs=%d seed=%d: anti[%d] %v vs %v", mode, numRegs, seed, i, got.Alloc.Antis[i], want.Alloc.Antis[i])
		}
	}
}

func compareRegions(t *testing.T, got, want *ir.Region, mode HWMode, numRegs int, seed int64) {
	t.Helper()
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		if g.AROffset != w.AROffset || g.P != w.P || g.C != w.C || g.ARMask != w.ARMask {
			t.Errorf("mode=%d regs=%d seed=%d: region op %d annotations (%d,%v,%v,%x) vs (%d,%v,%v,%x)",
				mode, numRegs, seed, i, g.AROffset, g.P, g.C, g.ARMask, w.AROffset, w.P, w.C, w.ARMask)
		}
	}
}

// TestBitmaskSinkPressureIsOpenRanges checks the bit-mask sink's live
// count, the register demand the scheduler throttles on, against a
// recount after every op: the scheduled memory ops that some still
// unscheduled op must check. Ops arrive in random orders and one pooled
// sink serves region after region, so stale state from a previous region
// would show.
func TestBitmaskSinkPressureIsOpenRanges(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := buildRegion(randSpecs(rng, 20+rng.Intn(60)))
		ds := deps.Compute(reg, alias.BuildTable(reg, nil))
		n := len(reg.Ops)
		s := newBitmaskSink(ds, n)
		done := make([]bool, n)
		for _, i := range rng.Perm(n) {
			s.Schedule(reg.Ops[i])
			done[i] = true
			open := 0
			for _, op := range reg.Ops {
				if !done[op.ID] || !op.IsMem() {
					continue
				}
				for _, d := range ds.ByDst(op.ID) {
					if !done[d.Src] {
						open++
						break
					}
				}
			}
			if got := s.Pressure(0); got != open {
				t.Fatalf("seed %d, after op %d: pressure %d, want %d open live ranges", seed, i, got, open)
			}
		}
		s.release()
	}
}
