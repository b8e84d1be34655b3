package region

import (
	"testing"

	"smarq/internal/guest"
	"smarq/internal/interp"
)

// loopProgram: B0 init; B1 loop body with a rarely-taken side branch to B3;
// B2 continues the loop; B3 cold path rejoins; B4 exit.
func loopProgram() *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock() // B0
	b.Li(1, 100)
	b.Li(2, 64)
	b.NewBlock() // B1: loop head
	b.Ld8(3, 2, 0)
	b.Beq(3, 31, 3) // rare side exit to B3 (r31 == 0, mem starts at 0... taken 1st iter only)
	b.NewBlock()    // B2
	b.Addi(3, 3, 1)
	b.St8(2, 0, 3)
	b.Addi(1, 1, -1)
	b.Bne(1, 0, 1)
	b.NewBlock() // B3: cold path
	b.Addi(3, 3, 100)
	b.St8(2, 0, 3)
	b.Jmp(2)
	b.NewBlock() // B4
	b.Halt()
	return b.MustProgram()
}

func profileOf(t *testing.T, prog *guest.Program) *interp.Profile {
	t.Helper()
	it := interp.New(prog, &guest.State{}, guest.NewMemory(256))
	if _, err := it.Run(0, 10_000); err != nil {
		t.Fatal(err)
	}
	return it.Prof
}

func TestFormFollowsHotPath(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	sb, err := Form(prog, prof, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Hot path is B1 -> B2 (B3 is entered at most once). The trace must be
	// [1 2] and stop when it would loop back to B1.
	if len(sb.Blocks) != 2 || sb.Blocks[0] != 1 || sb.Blocks[1] != 2 {
		t.Fatalf("trace blocks = %v, want [1 2]", sb.Blocks)
	}
	if sb.FinalTarget != 1 {
		t.Errorf("FinalTarget = %d, want 1 (loop back)", sb.FinalTarget)
	}
}

func TestFormGuards(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	sb, err := Form(prog, prof, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var guards []Inst
	for _, in := range sb.Insts {
		if in.IsGuard {
			guards = append(guards, in)
		}
	}
	if len(guards) != 2 {
		t.Fatalf("got %d guards, want 2:\n%s", len(guards), sb)
	}
	// Guard 1: beq r3,r31,B3 — hot direction is fallthrough (not taken),
	// off-trace resumes at B3.
	if guards[0].OnTraceTaken || guards[0].OffTrace != 3 {
		t.Errorf("guard0 = %+v, want not-taken with off-trace B3", guards[0])
	}
	// Guard 2: bne r1,r0,B1 — hot direction is taken (loop back);
	// off-trace is the fallthrough B3... actually B2+1 = B3.
	if !guards[1].OnTraceTaken || guards[1].OffTrace != 3 {
		t.Errorf("guard1 = %+v, want taken with off-trace B3", guards[1])
	}
}

func TestFormStopsAtHalt(t *testing.T) {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 1)
	b.NewBlock()
	b.Addi(1, 1, 1)
	b.NewBlock()
	b.Halt()
	prog := b.MustProgram()
	prof := profileOf(t, prog)
	sb, err := Form(prog, prof, 0, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Blocks) != 3 {
		t.Fatalf("trace blocks = %v, want all three", sb.Blocks)
	}
	if sb.FinalTarget != interp.HaltID {
		t.Errorf("FinalTarget = %d, want HaltID", sb.FinalTarget)
	}
	last := sb.Insts[len(sb.Insts)-1]
	if last.Inst.Op != guest.Halt {
		t.Errorf("final instruction = %s, want halt", last.Inst)
	}
}

func TestFormRespectsMaxInsts(t *testing.T) {
	// A long fallthrough chain.
	b := guest.NewBuilder()
	for i := 0; i < 20; i++ {
		b.NewBlock()
		for j := 0; j < 10; j++ {
			b.Addi(1, 1, 1)
		}
	}
	b.NewBlock()
	b.Halt()
	prog := b.MustProgram()
	prof := profileOf(t, prog)
	cfg := DefaultConfig()
	cfg.MaxInsts = 35
	sb, err := Form(prog, prof, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sb.Insts) > 35+10 {
		t.Errorf("superblock has %d insts, cap was 35 (+1 block slack)", len(sb.Insts))
	}
	if len(sb.Blocks) >= 20 {
		t.Errorf("trace took %d blocks, should have stopped early", len(sb.Blocks))
	}
}

func TestFormBadSeed(t *testing.T) {
	prog := loopProgram()
	if _, err := Form(prog, interp.NewProfile(len(prog.Blocks)), 99, DefaultConfig()); err == nil {
		t.Error("Form with bad seed did not fail")
	}
}

func TestNumMemOps(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	sb, err := Form(prog, prof, 1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.NumMemOps(); got != 2 { // ld8 in B1, st8 in B2
		t.Errorf("NumMemOps = %d, want 2", got)
	}
}

func TestStringContainsGuardInfo(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	sb, _ := Form(prog, prof, 1, DefaultConfig())
	s := sb.String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

func TestUnrollLoopTrace(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	cfg := DefaultConfig()
	cfg.Unroll = 3
	sb, err := Form(prog, prof, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, _ := Form(prog, prof, 1, DefaultConfig())
	if len(sb.Insts) != 3*len(plain.Insts) {
		t.Fatalf("unrolled trace has %d insts, want %d", len(sb.Insts), 3*len(plain.Insts))
	}
	if sb.UnrollFactor != 3 {
		t.Errorf("UnrollFactor = %d, want 3", sb.UnrollFactor)
	}
	if sb.FinalTarget != sb.Entry {
		t.Errorf("unrolled trace final target = %d, want entry %d", sb.FinalTarget, sb.Entry)
	}
	// Every copy ends with the loop-back guard.
	guards := 0
	for _, in := range sb.Insts {
		if in.IsGuard && in.OnTraceTaken {
			guards++
		}
	}
	if guards < 3 {
		t.Errorf("only %d taken-guards in unrolled trace, want >= 3", guards)
	}
}

func TestUnrollSkipsNonLoops(t *testing.T) {
	// A trace ending in Halt must not unroll.
	b := guest.NewBuilder()
	b.NewBlock()
	b.Addi(1, 1, 1)
	b.NewBlock()
	b.Halt()
	prog := b.MustProgram()
	prof := profileOf(t, prog)
	cfg := DefaultConfig()
	cfg.Unroll = 4
	sb, err := Form(prog, prof, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sb.UnrollFactor > 1 {
		t.Error("non-loop trace was unrolled")
	}
}

func TestUnrollRespectsMaxInsts(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	cfg := DefaultConfig()
	cfg.Unroll = 4
	cfg.MaxInsts = 10 // body is ~7 insts; 4x would blow the cap
	sb, err := Form(prog, prof, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sb.UnrollFactor > 1 {
		t.Error("unroll exceeded MaxInsts")
	}
}

// TestFormAllocatesInstsOnce: formation sizes sb.Insts exactly, unrolled
// copies included, so it never grows by doubling.
func TestFormAllocatesInstsOnce(t *testing.T) {
	prog := loopProgram()
	prof := profileOf(t, prog)
	for _, unroll := range []int{0, 3} {
		cfg := DefaultConfig()
		cfg.Unroll = unroll
		sb, err := Form(prog, prof, 1, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(sb.Insts) == 0 || cap(sb.Insts) != len(sb.Insts) {
			t.Errorf("Unroll %d: %d insts in capacity %d, want an exact fit", unroll, len(sb.Insts), cap(sb.Insts))
		}
	}
}
