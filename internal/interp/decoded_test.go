package interp

import (
	"testing"

	"smarq/internal/guest"
	"smarq/internal/workload"
)

// runEngine runs one interpreter engine over a fresh program instance and
// returns the interpreter plus the outcome.
func runEngine(t *testing.T, prog *guest.Program, memSize int, maxInsts uint64, ref bool) (*Interpreter, bool, error) {
	t.Helper()
	it := New(prog, &guest.State{}, guest.NewMemory(memSize))
	it.Ref = ref
	halted, err := it.Run(0, maxInsts)
	return it, halted, err
}

// diffEngines compares every observable of a decoded run against a
// reference run: halt/error outcome, retirement count, both register
// files, the memory digest, and the full profile (block counts plus the
// edge count of every static successor).
func diffEngines(t *testing.T, name string, prog *guest.Program, dec, ref *Interpreter, haltedDec, haltedRef bool, errDec, errRef error) {
	t.Helper()
	if haltedDec != haltedRef {
		t.Fatalf("%s: halted=%v, reference %v", name, haltedDec, haltedRef)
	}
	switch {
	case (errDec == nil) != (errRef == nil):
		t.Fatalf("%s: err=%v, reference %v", name, errDec, errRef)
	case errDec != nil && errDec.Error() != errRef.Error():
		t.Fatalf("%s: err %q, reference %q", name, errDec, errRef)
	}
	if dec.DynInsts != ref.DynInsts {
		t.Fatalf("%s: DynInsts=%d, reference %d", name, dec.DynInsts, ref.DynInsts)
	}
	if *dec.St != *ref.St {
		t.Fatalf("%s: architectural state diverged:\n%+v\nreference:\n%+v", name, dec.St, ref.St)
	}
	if d, r := dec.Mem.Digest(), ref.Mem.Digest(); d != r {
		t.Fatalf("%s: memory digest %#x, reference %#x", name, d, r)
	}
	for id := range prog.Blocks {
		if dec.Prof.BlockCounts[id] != ref.Prof.BlockCounts[id] {
			t.Fatalf("%s: B%d count %d, reference %d", name, id,
				dec.Prof.BlockCounts[id], ref.Prof.BlockCounts[id])
		}
		for _, succ := range prog.Blocks[id].Successors() {
			if d, r := dec.Prof.EdgeCount(id, succ), ref.Prof.EdgeCount(id, succ); d != r {
				t.Fatalf("%s: edge B%d->B%d count %d, reference %d", name, id, succ, d, r)
			}
		}
	}
}

// TestInterpDecodedMatchesReference proves the pre-decoded engine
// bit-identical to the guest.Exec reference across the whole workload
// suite: registers, memory, profile (block and edge counts) and retirement
// counts.
func TestInterpDecodedMatchesReference(t *testing.T) {
	for _, bm := range workload.Suite() {
		bm := bm
		t.Run(bm.Name, func(t *testing.T) {
			prog := bm.Build()
			ref, haltedRef, errRef := runEngine(t, prog, bm.MemSize, bm.MaxInsts, true)
			dec, haltedDec, errDec := runEngine(t, prog, bm.MemSize, bm.MaxInsts, false)
			if !haltedRef || errRef != nil {
				t.Fatalf("reference run: halted=%v err=%v", haltedRef, errRef)
			}
			diffEngines(t, bm.Name, prog, dec, ref, haltedDec, haltedRef, errDec, errRef)
		})
	}
}

// fusionProgram exercises every fusion rule: slt feeding beq and bne,
// addi feeding loads of every width (including the float load), plus the
// destination-aliasing case where the load overwrites the addi result.
func fusionProgram() *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock() // B0: init
	b.Li(1, 16)  // loop counter
	b.Li(2, 64)  // base address
	b.Li(13, 1)
	b.St8(2, 0, 2)
	loop := b.NewBlock() // B1: fused bodies
	// addi+ld fusion at every width; r4 = base+8 is also reused below.
	b.Addi(4, 2, 8)
	b.Ld1(5, 4, 0)
	b.Addi(4, 2, 8)
	b.Ld2(6, 4, 0)
	b.Addi(4, 2, 8)
	b.Ld4(7, 4, 0)
	b.Addi(4, 2, 8)
	b.Ld8(8, 4, 0)
	b.Addi(4, 2, 8)
	b.FLd8(3, 4, 0)
	// Destination aliasing: the fused load clobbers the addi result.
	b.Addi(9, 2, 8)
	b.Ld8(9, 9, 0)
	// Scaled-index triples at every fused access, covering both add
	// operand orders, plus a muli+add pair with no memory op to absorb.
	b.Muli(14, 13, 8)
	b.Add(14, 2, 14)
	b.Ld8(15, 14, 0)
	b.Muli(14, 13, 8)
	b.Add(14, 14, 2)
	b.FLd8(4, 14, 0)
	b.Muli(14, 13, 8)
	b.Add(14, 2, 14)
	b.St8(14, 0, 10)
	b.Muli(14, 13, 8)
	b.Add(14, 2, 14)
	b.FSt8(14, 0, 3)
	b.Muli(14, 13, 8)
	b.Add(15, 2, 14)
	b.Add(10, 10, 15)
	// Store something dependent so divergence reaches memory.
	b.Add(10, 5, 6)
	b.Add(10, 10, 7)
	b.Add(10, 10, 8)
	b.Add(10, 10, 9)
	b.St8(2, 16, 10)
	// slt+bne fusion: loop while 0 < r1.
	b.Addi(1, 1, -1)
	b.Slt(11, 0, 1)
	b.Bne(11, 0, loop)
	b.NewBlock() // B2: slt+beq fusion, not taken (r1=0 < r13=1, so r12=1)
	b.Slt(12, 1, 13)
	b.Beq(12, 0, loop)
	b.NewBlock() // B3
	b.Halt()
	return b.MustProgram()
}

// TestInterpFusionMatchesReference runs the fusion-heavy program through
// both engines and demands identical results, proving fused pairs still
// perform every architectural write and retire both instructions.
func TestInterpFusionMatchesReference(t *testing.T) {
	prog := fusionProgram()
	ref, haltedRef, errRef := runEngine(t, prog, 4096, 1_000_000, true)
	dec, haltedDec, errDec := runEngine(t, prog, 4096, 1_000_000, false)
	if !haltedRef || errRef != nil {
		t.Fatalf("reference run: halted=%v err=%v", haltedRef, errRef)
	}
	diffEngines(t, "fusion", prog, dec, ref, haltedDec, haltedRef, errDec, errRef)

	// The program must actually contain fused ops, or this test proves
	// nothing.
	fused, triples := 0, 0
	for _, in := range dec.dec.code {
		if in.op > dHalt && in.op < dBad {
			fused++
		}
		if in.op >= dMuliAddLd8 && in.op < dBad {
			triples++
		}
	}
	if fused < 12 {
		t.Fatalf("decoded program holds %d fused ops, want >= 12", fused)
	}
	if triples < 4 {
		t.Fatalf("decoded program holds %d fused triples, want >= 4", triples)
	}
}

// pagingProgram loops three times over plain and fused accesses of every
// width at base: loads of memory no store has touched yet, unaligned
// accesses that straddle base's page boundary, and stores that allocate
// pages. The first iteration sends nearly every access through
// slowAccess and then resumes the block; later iterations hit the fast
// path on the pages the first one allocated.
func pagingProgram(base int64) *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 3) // loop counter
	b.Li(2, base)
	b.Li(3, 0x0102030405060708)
	b.Li(13, 1)
	loop := b.NewBlock()
	b.Ld8(5, 2, 0)
	b.Ld4(6, 2, 1)
	b.Ld2(7, 2, 3)
	b.Ld1(8, 2, 4)
	b.Addi(4, 2, 1) // addi+ld4
	b.Ld4(16, 4, 0)
	b.Addi(4, 2, 3) // addi+ld2
	b.Ld2(17, 4, 0)
	b.Addi(4, 2, 5) // addi+ld1
	b.Ld1(18, 4, 0)
	b.Addi(4, 2, 6) // addi+ld8
	b.Ld8(19, 4, 0)
	b.Muli(14, 13, 8) // scaled-index ld8 triple
	b.Add(14, 2, 14)
	b.Ld8(15, 14, 0)
	b.Addi(4, 2, 2) // addi+fld8
	b.FLd8(1, 4, 0)
	b.Muli(14, 13, 8) // scaled-index fld8 triple
	b.Add(14, 2, 14)
	b.FLd8(2, 14, 1)
	for _, r := range []guest.Reg{6, 7, 8, 16, 17, 18, 19, 15, 3} {
		b.Add(5, 5, r)
	}
	b.FLd8(3, 2, 7)
	b.FAdd(1, 1, 2)
	b.FAdd(1, 1, 3)
	b.Mov(10, 5)
	b.St8(2, 1, 10)
	b.St4(2, 9, 10)
	b.St2(2, 13, 10)
	b.St1(2, 15, 10)
	b.Muli(14, 13, 8) // scaled-index st8 triple
	b.Add(14, 2, 14)
	b.St8(14, 16, 10)
	b.Muli(14, 13, 8) // scaled-index fst8 triple
	b.Add(14, 2, 14)
	b.FSt8(14, 12, 1)
	b.FSt8(2, 20, 1)
	b.Addi(3, 3, 7)
	b.Addi(1, 1, -1)
	b.Slt(11, 0, 1)
	b.Bne(11, 0, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// TestInterpSlowAccessMatchesReference holds the decoded engine's
// slow-path resume bit-identical to the reference engine wherever the
// page fast path declines: untouched pages, accesses straddling a page
// boundary, a boundary into the tail, and a memory that is all tail.
func TestInterpSlowAccessMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		base    int64
		memSize int
	}{
		{"page-crossing", guest.PageSize - 4, 4 * guest.PageSize},
		{"into-tail", guest.PageSize - 4, guest.PageSize + 40},
		{"all-tail", 8, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog := pagingProgram(tc.base)
			ref, haltedRef, errRef := runEngine(t, prog, tc.memSize, 1000, true)
			dec, haltedDec, errDec := runEngine(t, prog, tc.memSize, 1000, false)
			if !haltedRef || errRef != nil {
				t.Fatalf("reference run: halted=%v err=%v", haltedRef, errRef)
			}
			diffEngines(t, tc.name, prog, dec, ref, haltedDec, haltedRef, errDec, errRef)
		})
	}
}

// fusedFaultCase is one fused memory form whose access faults: prefix
// emits the instructions that feed the access and returns its base
// register, access emits the access itself.
type fusedFaultCase struct {
	name   string
	prefix func(b *guest.Builder) guest.Reg
	access func(b *guest.Builder, base guest.Reg)
	op     dOp    // the fused op the sequence must decode to
	want   uint64 // DynInsts: the prefix retires, the faulting access does not
}

// checkFusedFaults runs each case through both engines. The decoded run
// must hold the case's fused op (or the row proves nothing), retire
// exactly the instructions before the faulting access, and match the
// reference in every observable, error string included.
func checkFusedFaults(t *testing.T, cases []fusedFaultCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *guest.Program {
				b := guest.NewBuilder()
				b.NewBlock()
				tc.access(b, tc.prefix(b))
				b.Halt()
				return b.MustProgram()
			}
			ref, haltedRef, errRef := runEngine(t, build(), 256, 1_000_000, true)
			dec, haltedDec, errDec := runEngine(t, build(), 256, 1_000_000, false)
			fused := false
			for _, in := range dec.dec.code {
				fused = fused || in.op == tc.op
			}
			if !fused {
				t.Fatalf("decoded program does not hold fused op %d", tc.op)
			}
			if errRef == nil {
				t.Fatal("reference run did not fault")
			}
			diffEngines(t, tc.name, build(), dec, ref, haltedDec, haltedRef, errDec, errRef)
			if dec.DynInsts != tc.want {
				t.Fatalf("DynInsts = %d, want %d", dec.DynInsts, tc.want)
			}
		})
	}
}

// Fault-seeding accesses for the fused-fault tables: each goes through
// base, which the prefix points way out of range.
var (
	ld1  = func(b *guest.Builder, base guest.Reg) { b.Ld1(4, base, 0) }
	ld2  = func(b *guest.Builder, base guest.Reg) { b.Ld2(4, base, 0) }
	ld4  = func(b *guest.Builder, base guest.Reg) { b.Ld4(4, base, 0) }
	ld8  = func(b *guest.Builder, base guest.Reg) { b.Ld8(4, base, 0) }
	fld8 = func(b *guest.Builder, base guest.Reg) { b.FLd8(4, base, 0) }
	st8  = func(b *guest.Builder, base guest.Reg) { b.St8(base, 0, 4) }
	fst8 = func(b *guest.Builder, base guest.Reg) { b.FSt8(base, 0, 4) }
)

// TestInterpFusedFaultRetirement: when the load of a fused addi+load pair
// faults, the li before it and the addi half retire but the load does not,
// for every access width.
func TestInterpFusedFaultRetirement(t *testing.T) {
	addi := func(b *guest.Builder) guest.Reg {
		b.Li(1, 1<<40) // way out of range
		b.Addi(2, 1, 8)
		return 2
	}
	checkFusedFaults(t, []fusedFaultCase{
		{"addi+ld1", addi, ld1, dAddiLd1, 2},
		{"addi+ld2", addi, ld2, dAddiLd2, 2},
		{"addi+ld4", addi, ld4, dAddiLd4, 2},
		{"addi+ld8", addi, ld8, dAddiLd8, 2},
		{"addi+fld8", addi, fld8, dAddiFLd8, 2},
	})
}

// TestInterpTripleFaultRetirement: when the access of a fused
// scaled-index triple faults, the two li before it and the muli and add
// halves retire (and write their destinations) but the access does not,
// for every fused load and store form.
func TestInterpTripleFaultRetirement(t *testing.T) {
	muliAdd := func(b *guest.Builder) guest.Reg {
		b.Li(1, 1<<37)
		b.Li(2, 8)
		b.Muli(3, 1, 8) // 1<<40
		b.Add(3, 2, 3)
		return 3
	}
	checkFusedFaults(t, []fusedFaultCase{
		{"muli+add+ld8", muliAdd, ld8, dMuliAddLd8, 4},
		{"muli+add+fld8", muliAdd, fld8, dMuliAddFLd8, 4},
		{"muli+add+st8", muliAdd, st8, dMuliAddSt8, 4},
		{"muli+add+fst8", muliAdd, fst8, dMuliAddFSt8, 4},
	})
}

// TestInterpBadOpcode: an opcode guest.Exec cannot execute surfaces the
// identical error from both engines.
func TestInterpBadOpcode(t *testing.T) {
	prog := &guest.Program{
		Blocks: []*guest.Block{{Insts: []guest.Inst{
			{Op: guest.Nop},
			{Op: guest.Opcode(200)},
			{Op: guest.Halt},
		}}},
	}
	ref, _, errRef := runEngine(t, prog, 64, 1000, true)
	dec, _, errDec := runEngine(t, prog, 64, 1000, false)
	if errRef == nil || errDec == nil {
		t.Fatalf("bad opcode not rejected: ref=%v dec=%v", errRef, errDec)
	}
	if errDec.Error() != errRef.Error() {
		t.Fatalf("err %q, reference %q", errDec, errRef)
	}
	if dec.DynInsts != ref.DynInsts {
		t.Fatalf("DynInsts=%d, reference %d", dec.DynInsts, ref.DynInsts)
	}
}

// TestRunBudgetOvershootBounded pins the documented maxInsts contract:
// the budget is checked between blocks, so a run overshoots by at most
// the size of the final block it executed.
func TestRunBudgetOvershootBounded(t *testing.T) {
	const bodySize = 500
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 1) // never zero, so the loop spins forever
	loop := b.NewBlock()
	for i := 0; i < bodySize; i++ {
		b.Addi(2, 2, 1)
	}
	b.Jmp(loop)
	prog := b.MustProgram()
	blockInsts := uint64(bodySize + 1)

	const budget = 100 // far below one block
	it := New(prog, &guest.State{}, guest.NewMemory(64))
	halted, err := it.Run(0, budget)
	if err != nil || halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if it.DynInsts < budget {
		t.Fatalf("DynInsts=%d stopped below the budget %d", it.DynInsts, budget)
	}
	if max := budget + blockInsts; it.DynInsts > max {
		t.Fatalf("DynInsts=%d overshoots budget %d by more than one block (max %d)",
			it.DynInsts, budget, max)
	}
}

// TestInterpreterReset: Reset rewinds profile and retirement counts so a
// reused interpreter replays identically (the benchmark-reuse contract).
func TestInterpreterReset(t *testing.T) {
	prog := countdownProgram(50)
	st := &guest.State{}
	mem := guest.NewMemory(256)
	it := New(prog, st, mem)
	if _, err := it.Run(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	first := it.DynInsts
	firstCounts := append([]uint64(nil), it.Prof.BlockCounts...)

	*st = guest.State{}
	mem.Zero()
	it.Reset()
	if it.DynInsts != 0 || it.Prof.BlockCounts[1] != 0 || it.Prof.EdgeCount(1, 1) != 0 {
		t.Fatal("Reset left profile state behind")
	}
	if _, err := it.Run(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if it.DynInsts != first {
		t.Fatalf("replay retired %d, first run %d", it.DynInsts, first)
	}
	for id, n := range it.Prof.BlockCounts {
		if n != firstCounts[id] {
			t.Fatalf("replay B%d count %d, first run %d", id, n, firstCounts[id])
		}
	}
}

// TestRunToHaltPages pins how much guest memory a whole run pays for: the
// exact number of 1 KiB pages a run to halt allocates out of the 80 a
// workload's memory spans. A change that allocates pages on loads, or
// stops allocating on stores, moves these counts.
func TestRunToHaltPages(t *testing.T) {
	for name, want := range map[string]int{"swim": 11, "equake": 8, "ammp": 9} {
		t.Run(name, func(t *testing.T) {
			bm, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			mem := guest.NewMemory(bm.MemSize)
			it := New(bm.Build(), &guest.State{}, mem)
			if halted, err := it.Run(0, bm.MaxInsts); err != nil || !halted {
				t.Fatalf("run: halted=%v err=%v", halted, err)
			}
			got := 0
			for _, p := range mem.Pages() {
				if p != nil {
					got++
				}
			}
			if got != want {
				t.Errorf("run to halt allocated %d of %d pages, want %d", got, len(mem.Pages()), want)
			}
		})
	}
}

// TestInterpreterZeroAllocs pins the pre-decoded engine's steady state at
// zero heap allocations: with the program decoded once, a reset-and-replay
// 100k-instruction run (BenchmarkInterpreter's iteration) is pure threaded
// dispatch and must not touch the heap. One warm-up run precedes the
// measurement so any lazily sized scratch is already in place.
func TestInterpreterZeroAllocs(t *testing.T) {
	for _, name := range []string{"swim", "equake", "ammp"} {
		t.Run(name, func(t *testing.T) {
			bm, ok := workload.ByName(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			st := &guest.State{}
			mem := guest.NewMemory(bm.MemSize)
			it := New(bm.Build(), st, mem)
			replay := func() {
				*st = guest.State{}
				mem.Zero()
				it.Reset()
				if _, err := it.Run(0, 100_000); err != nil {
					t.Fatal(err)
				}
			}
			replay()
			if allocs := testing.AllocsPerRun(10, replay); allocs != 0 {
				t.Errorf("steady-state 100k-instruction run allocates %v times, want 0", allocs)
			}
		})
	}
}
