package xlate

import (
	"testing"

	"smarq/internal/guest"
	"smarq/internal/interp"
	"smarq/internal/ir"
	"smarq/internal/region"
)

// formOne builds a program with builder fn, interprets it to get a profile,
// and forms a superblock at seed.
func formOne(t *testing.T, seed int, build func(*guest.Builder)) *region.Superblock {
	t.Helper()
	b := guest.NewBuilder()
	build(b)
	prog := b.MustProgram()
	it := interp.New(prog, &guest.State{}, guest.NewMemory(4096))
	// A fault during profiling is fine for these tests: straight-line
	// traces form correctly from an empty profile.
	_, _ = it.Run(0, 100_000)
	sb, err := region.Form(prog, it.Prof, seed, region.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

func TestTranslateRenaming(t *testing.T) {
	sb := formOne(t, 0, func(b *guest.Builder) {
		b.NewBlock()
		b.Li(1, 100)    // v64 = 100
		b.Addi(1, 1, 8) // v65 = v64 + 8 — r1 redefined
		b.Ld8(2, 1, 0)  // v66 = mem[v65]
		b.Halt()
	})
	reg, err := TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(reg.Ops) != 3 {
		t.Fatalf("got %d ops, want 3 (halt dropped)", len(reg.Ops))
	}
	li, addi, ld := reg.Ops[0], reg.Ops[1], reg.Ops[2]
	if li.Dst == addi.Dst {
		t.Error("redefinition of r1 did not get a fresh vreg")
	}
	if addi.Srcs[0] != li.Dst {
		t.Error("addi does not read li's vreg")
	}
	if ld.Mem.Base != addi.Dst {
		t.Error("load base is not the renamed r1")
	}
	if reg.IntOut[1] != addi.Dst {
		t.Errorf("IntOut[1] = v%d, want v%d", reg.IntOut[1], addi.Dst)
	}
	if reg.IntOut[2] != ld.Dst {
		t.Errorf("IntOut[2] = v%d, want v%d", reg.IntOut[2], ld.Dst)
	}
}

func TestTranslateCanonicalAddresses(t *testing.T) {
	sb := formOne(t, 0, func(b *guest.Builder) {
		b.NewBlock()
		b.Addi(2, 1, 16) // r2 = r1 + 16
		b.Ld8(3, 1, 0)   // [r1+0]  -> root v1, off 0
		b.Ld8(4, 2, 8)   // [r2+8]  -> root v1, off 24
		b.Li(5, 512)     // absolute
		b.St8(5, 4, 3)   // [512+4] -> abs 516
		b.Halt()
	})
	reg, err := TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	var mems []*ir.Op
	for _, o := range reg.Ops {
		if o.IsMem() {
			mems = append(mems, o)
		}
	}
	if len(mems) != 3 {
		t.Fatalf("got %d mem ops, want 3", len(mems))
	}
	m0, m1, m2 := mems[0].Mem, mems[1].Mem, mems[2].Mem
	if m0.Abs || m0.Root != ir.LiveInInt(1) || m0.RootOff != 0 {
		t.Errorf("m0 canon = %+v, want root v1 off 0", m0)
	}
	if m1.Abs || m1.Root != ir.LiveInInt(1) || m1.RootOff != 24 {
		t.Errorf("m1 canon = %+v, want root v1 off 24", m1)
	}
	if !m2.Abs || m2.RootOff != 516 {
		t.Errorf("m2 canon = %+v, want abs 516", m2)
	}
}

func TestTranslateAddWithConstant(t *testing.T) {
	sb := formOne(t, 0, func(b *guest.Builder) {
		b.NewBlock()
		b.Li(2, 24)    // const
		b.Add(3, 1, 2) // r3 = r1 + 24
		b.Add(4, 2, 1) // r4 = 24 + r1 (const on the left)
		b.Sub(5, 1, 2) // r5 = r1 - 24
		b.Ld8(6, 3, 0)
		b.Ld8(7, 4, 0)
		b.Ld8(8, 5, 0)
		b.Halt()
	})
	reg, err := TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	mems := reg.MemOps()
	root := ir.LiveInInt(1)
	wants := []int64{24, 24, -24}
	for i, m := range mems {
		if m.Mem.Abs || m.Mem.Root != root || m.Mem.RootOff != wants[i] {
			t.Errorf("mem %d canon = %+v, want root v1 off %d", i, m.Mem, wants[i])
		}
	}
}

func TestTranslateGuard(t *testing.T) {
	sb := formOne(t, 1, func(b *guest.Builder) {
		b.NewBlock() // B0
		b.Li(1, 50)
		b.NewBlock() // B1: loop
		b.Addi(1, 1, -1)
		b.Bne(1, 0, 1)
		b.NewBlock() // B2
		b.Halt()
	})
	reg, err := TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	var g *ir.Op
	for _, o := range reg.Ops {
		if o.Kind == ir.Guard {
			g = o
		}
	}
	if g == nil {
		t.Fatal("no guard emitted")
	}
	if !g.OnTraceTaken {
		t.Error("loop-back guard should expect taken")
	}
	if g.OffTrace != 2 {
		t.Errorf("guard OffTrace = %d, want 2", g.OffTrace)
	}
	if g.GOp != guest.Bne {
		t.Errorf("guard GOp = %s, want bne", g.GOp)
	}
	if reg.FinalTarget != 1 {
		t.Errorf("FinalTarget = %d, want 1", reg.FinalTarget)
	}
}

func TestTranslateFloatOps(t *testing.T) {
	sb := formOne(t, 0, func(b *guest.Builder) {
		b.NewBlock()
		b.FLi(1, 2.5)
		b.FLd8(2, 3, 8)
		b.FMul(4, 1, 2)
		b.FSt8(3, 16, 4)
		b.CvtFI(5, 4)
		b.CvtIF(6, 5)
		b.Halt()
	})
	reg, err := TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	ops := reg.Ops
	if !ops[0].DstFloat {
		t.Error("fli dst not float")
	}
	ld := ops[1]
	if !ld.DstFloat || ld.SrcFloat[0] {
		t.Error("fld8 file flags wrong")
	}
	st := ops[3]
	if st.Kind != ir.Store || !st.SrcFloat[0] || st.SrcFloat[1] {
		t.Errorf("fst8 flags wrong: %+v", st)
	}
	if st.Srcs[0] != ops[2].Dst {
		t.Error("store value is not the fmul result")
	}
	cvtfi := ops[4]
	if cvtfi.DstFloat || !cvtfi.SrcFloat[0] {
		t.Error("cvtfi file flags wrong")
	}
	if reg.FloatOut[4] != ops[2].Dst {
		t.Error("FloatOut[4] not the fmul result")
	}
}

func TestTranslateStoreValueOperand(t *testing.T) {
	sb := formOne(t, 0, func(b *guest.Builder) {
		b.NewBlock()
		b.Li(1, 7)
		b.St8(2, 0, 1)
		b.Halt()
	})
	reg, err := TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	st := reg.Ops[1]
	if st.Srcs[0] != reg.Ops[0].Dst {
		t.Error("store value operand is not li's vreg")
	}
	if st.Srcs[1] != ir.LiveInInt(2) {
		t.Error("store base operand is not live-in r2")
	}
}

func TestTranslateDropsJmp(t *testing.T) {
	sb := formOne(t, 0, func(b *guest.Builder) {
		b.NewBlock()
		b.Addi(1, 1, 1)
		b.Jmp(1)
		b.NewBlock()
		b.Halt()
	})
	reg, err := TranslateArena(sb, ir.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range reg.Ops {
		if o.Kind == ir.Guard {
			t.Error("jmp should not produce a guard")
		}
	}
	if len(reg.Ops) != 1 {
		t.Errorf("got %d ops, want 1", len(reg.Ops))
	}
}
