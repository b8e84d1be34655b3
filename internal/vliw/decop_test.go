package vliw

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"smarq/internal/guest"
	"smarq/internal/ir"
)

// TestDecOpSize pins the decoded op at 40 bytes: the installed stream is
// most of what a compile allocates, so a new field that grows the struct
// must be a deliberate decision, not an accident.
func TestDecOpSize(t *testing.T) {
	if got := unsafe.Sizeof(decOp{}); got != 40 {
		t.Errorf("decOp is %d bytes, want 40", got)
	}
}

// packedRegion compiles a hand-built schedule holding one op of every
// meaning the packed operand word takes, plus every flag bit set on at
// least one op. Slots are addressed by the returned indices.
func packedRegion(t *testing.T) (*CompiledRegion, []*ir.Op) {
	t.Helper()
	const base, v = ir.VReg(1), ir.VReg(2 * guest.NumRegs)
	ops := []*ir.Op{
		{Kind: ir.Arith, GOp: guest.Li, Dst: v, Imm: -42},
		{Kind: ir.Arith, GOp: guest.Addi, Dst: v + 1, Srcs: []ir.VReg{v}, SrcFloat: []bool{false}, Imm: 7},
		{Kind: ir.Arith, GOp: guest.FLi, Dst: v + 2, DstFloat: true, FImm: -1.5},
		{Kind: ir.Load, GOp: guest.Ld8, Dst: v + 3, Srcs: []ir.VReg{base}, SrcFloat: []bool{false},
			Mem: &ir.MemInfo{Base: base, Off: 24, Size: 8}, P: true},
		{Kind: ir.Store, GOp: guest.FSt8, Srcs: []ir.VReg{v + 2, base}, SrcFloat: []bool{true, false},
			Mem: &ir.MemInfo{Base: base, Off: -16, Size: 8}, C: true},
		{Kind: ir.Guard, GOp: guest.Blt, Srcs: []ir.VReg{v, v + 1}, SrcFloat: []bool{false, false}, OnTraceTaken: true},
		{Kind: ir.Rotate, Amount: 3},
		{Kind: ir.AMov, SrcOff: -2, DstOff: 5},
	}
	for i, op := range ops {
		op.ID = i
		if op.Dst == 0 { // the literals leave Dst unset on ops that define nothing
			op.Dst = ir.NoVReg
		}
		if !op.IsMem() {
			op.AROffset = -1
		}
	}
	reg := &ir.Region{NumVRegs: int(v) + 4, FinalTarget: 1}
	for r := 0; r < guest.NumRegs; r++ {
		reg.IntOut[r] = ir.LiveInInt(guest.Reg(r))
		reg.FloatOut[r] = ir.LiveInFloat(guest.Reg(r))
	}
	cr := DefaultConfig().Compile(ops, reg, len(ops))
	if err := cr.Validate(); err != nil {
		t.Fatal(err)
	}
	return cr, ops
}

// TestDecodeAccessors checks every packed field reads back, through its
// accessor, exactly what the IR op carried — including a negative AMov
// offset and the FLi immediate's sign bit.
func TestDecodeAccessors(t *testing.T) {
	cr, ops := packedRegion(t)
	for i, op := range ops {
		d := &cr.code[i]
		if d.dstFloat() != op.DstFloat || d.p() != op.P || d.c() != op.C || d.onTraceTaken() != op.OnTraceTaken ||
			len(op.SrcFloat) > 0 && d.srcFloat0() != op.SrcFloat[0] {
			t.Errorf("slot %d (%v): flags %05b do not match the IR op", i, op.Kind, d.flags)
		}
		switch op.Kind {
		case ir.Arith:
			if op.GOp == guest.FLi {
				if math.Float64bits(d.fimm()) != math.Float64bits(op.FImm) {
					t.Errorf("slot %d: fimm %v, want %v", i, d.fimm(), op.FImm)
				}
			} else if d.imm != op.Imm {
				t.Errorf("slot %d: imm %d, want %d", i, d.imm, op.Imm)
			}
		case ir.Load, ir.Store:
			if d.memOff() != op.Mem.Off {
				t.Errorf("slot %d: offset %d, want %d", i, d.memOff(), op.Mem.Off)
			}
		case ir.Rotate:
			if d.rotateAmount() != op.Amount {
				t.Errorf("slot %d: rotate amount %d, want %d", i, d.rotateAmount(), op.Amount)
			}
		case ir.AMov:
			if src, dst := d.amovOffsets(); src != op.SrcOff || dst != op.DstOff {
				t.Errorf("slot %d: amov offsets %d,%d, want %d,%d", i, src, dst, op.SrcOff, op.DstOff)
			}
		}
	}
}

// TestChecksumCoversPackedFields flips one bit of the operand word under
// each of its meanings, and each flag bit, and requires the checksum to
// move every time: the fields that used to be hashed one by one are
// still all covered now that they share storage.
func TestChecksumCoversPackedFields(t *testing.T) {
	const (
		li, addi, fli, load, store, guard, rotate, amov = 0, 1, 2, 3, 4, 5, 6, 7
	)
	cases := []struct {
		name string
		slot int
		flip func(d *decOp)
	}{
		{"li immediate", li, func(d *decOp) { d.imm ^= 1 }},
		{"addi immediate", addi, func(d *decOp) { d.imm ^= 1 << 40 }},
		{"fli mantissa", fli, func(d *decOp) { d.imm ^= 1 }},
		{"fli sign", fli, func(d *decOp) { d.imm ^= math.MinInt64 }},
		{"load offset", load, func(d *decOp) { d.imm ^= 8 }},
		{"store offset", store, func(d *decOp) { d.imm ^= 1 << 62 }},
		{"rotate amount", rotate, func(d *decOp) { d.imm ^= 1 }},
		{"amov source offset", amov, func(d *decOp) { d.imm ^= 1 << 31 }},
		{"amov destination offset", amov, func(d *decOp) { d.imm ^= 1 << 32 }},
		{"dst float", fli, func(d *decOp) { d.flags ^= flagDstFloat }},
		{"src0 float", store, func(d *decOp) { d.flags ^= flagSrcFloat0 }},
		{"p bit", load, func(d *decOp) { d.flags ^= flagP }},
		{"c bit", store, func(d *decOp) { d.flags ^= flagC }},
		{"on-trace taken", guard, func(d *decOp) { d.flags ^= flagOnTraceTaken }},
		{"fused opcode", load, func(d *decOp) { d.xop = xLd4 }},
		{"fused file", store, func(d *decOp) { d.xop = xSt8 }},
	}
	clean, _ := packedRegion(t)
	sum := clean.Checksum()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr, _ := packedRegion(t)
			before := cr.code[tc.slot]
			tc.flip(&cr.code[tc.slot])
			if cr.code[tc.slot] == before {
				t.Fatal("flip left the op unchanged")
			}
			if cr.Checksum() == sum {
				t.Errorf("flipping the %s of slot %d left the checksum at %#x", tc.name, tc.slot, sum)
			}
		})
	}
	for _, tc := range []struct {
		name string
		flip func(cr *CompiledRegion)
	}{
		{"int live-out mask", func(cr *CompiledRegion) { cr.intLive ^= 1 << 3 }},
		{"float live-out mask", func(cr *CompiledRegion) { cr.floatLive ^= 1 << 31 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cr, _ := packedRegion(t)
			tc.flip(cr)
			if cr.Checksum() == sum {
				t.Errorf("flipping a bit of the %s left the checksum at %#x", tc.name, sum)
			}
		})
	}
}

// TestDecodeFusesAndMasks checks what decode and Compile add for the
// executor: each op's fused opcode is the one its kind, guest opcode,
// width and register file name, and the live-out masks hold exactly the
// registers whose live-out vreg is not their untouched live-in vreg.
func TestDecodeFusesAndMasks(t *testing.T) {
	cr, _ := packedRegion(t)
	want := []xop{xLi, xAddi, xFLi, xLd8, xFSt8, xBlt, xRotate, xAMov}
	for i, x := range want {
		if got := cr.code[i].xop; got != x {
			t.Errorf("slot %d fused to %v, want %v", i, got, x)
		}
	}
	// packedRegion maps every register to its live-in vreg and writes
	// none of them: a commit writes nothing back.
	if cr.intLive != 0 || cr.floatLive != 0 {
		t.Errorf("live-out masks %#x/%#x, want 0/0", cr.intLive, cr.floatLive)
	}

	const v = ir.VReg(2 * guest.NumRegs)
	ops := []*ir.Op{
		{Kind: ir.Arith, GOp: guest.Li, Dst: 3, Imm: 1},                                        // writes r3's live-in vreg
		{Kind: ir.Arith, GOp: guest.FLi, Dst: ir.LiveInFloat(5), DstFloat: true},               // and f5's
		{Kind: ir.Arith, GOp: guest.CvtFI, Dst: 7, Srcs: []ir.VReg{v}, SrcFloat: []bool{true}}, // an int write from a float op
		{Kind: ir.Copy, Dst: 9, DstFloat: true, Srcs: []ir.VReg{v}, SrcFloat: []bool{true}},    // float file: not r9
		{Kind: ir.Arith, GOp: guest.Li, Dst: ir.LiveInFloat(11), Imm: 2},                       // int file: not f11
		{Kind: ir.Arith, GOp: guest.Nop, Dst: 13},                                              // writes nothing
		{Kind: ir.Arith, GOp: guest.FAdd, Dst: v, DstFloat: true, Srcs: []ir.VReg{v, v}, SrcFloat: []bool{true, true}},
	}
	for i, op := range ops {
		op.ID = i
		op.AROffset = -1
	}
	reg := &ir.Region{NumVRegs: int(v) + 1}
	for r := 0; r < guest.NumRegs; r++ {
		reg.IntOut[r] = ir.LiveInInt(guest.Reg(r))
		reg.FloatOut[r] = ir.LiveInFloat(guest.Reg(r))
	}
	reg.IntOut[20] = ir.LiveInInt(21) // a renamed register
	reg.FloatOut[30] = v              // a computed one
	cr = DefaultConfig().Compile(ops, reg, len(ops))
	if err := cr.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := uint32(1<<3 | 1<<7 | 1<<20); cr.intLive != want {
		t.Errorf("int live-out mask %#x, want %#x", cr.intLive, want)
	}
	if want := uint32(1<<5 | 1<<30); cr.floatLive != want {
		t.Errorf("float live-out mask %#x, want %#x", cr.floatLive, want)
	}
}

// TestValidateRejectsFusedMismatch corrupts one op's fused opcode, or a
// field it is decoded from, or a live-out mask, and requires Validate to
// reject each: validated code never reaches the executor's default arm or
// runs an arm its fields do not name, and never skips a write-back.
func TestValidateRejectsFusedMismatch(t *testing.T) {
	const (
		li, addi, fli, load, store, guard = 0, 1, 2, 3, 4, 5
	)
	cases := []struct {
		name string
		flip func(cr *CompiledRegion)
	}{
		{"zero fused opcode", func(cr *CompiledRegion) { cr.code[li].xop = xBad }},
		{"fused opcode past the last", func(cr *CompiledRegion) { cr.code[li].xop = numXops }},
		{"fused opcode of another arith op", func(cr *CompiledRegion) { cr.code[addi].xop = xMuli }},
		{"fused opcode of another kind", func(cr *CompiledRegion) { cr.code[guard].xop = xFLi }},
		{"kind", func(cr *CompiledRegion) { cr.code[load].kind = ir.Store }},
		{"guest opcode", func(cr *CompiledRegion) { cr.code[fli].gop = guest.FMov }},
		{"guest opcode of another kind", func(cr *CompiledRegion) { cr.code[guard].gop = guest.Add }},
		{"width", func(cr *CompiledRegion) { cr.code[load].memSize = 4 }},
		{"load register file", func(cr *CompiledRegion) { cr.code[load].flags ^= flagDstFloat }},
		{"store register file", func(cr *CompiledRegion) { cr.code[store].flags ^= flagSrcFloat0 }},
		{"missing source", func(cr *CompiledRegion) { cr.code[addi].src0 = int32(ir.NoVReg) }},
		{"write to a live-in the mask misses", func(cr *CompiledRegion) { cr.code[li].dst = 4 }},
		{"extra float live-out", func(cr *CompiledRegion) { cr.floatLive |= 1 << 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cr, _ := packedRegion(t)
			tc.flip(cr)
			if err := cr.Validate(); err == nil {
				t.Error("Validate accepted the corrupted region")
			}
		})
	}
}

// TestChecksumCoversEveryBit flips, one at a time, every bit of every
// word the checksum hashes — the header, the live-out maps and each
// field of each decoded op — and requires the sum to change each time.
func TestChecksumCoversEveryBit(t *testing.T) {
	cr, _ := packedRegion(t)
	sum := cr.Checksum()
	check := func(name string, bits uint, flip func(b uint)) {
		t.Helper()
		for b := uint(0); b < bits; b++ {
			flip(b)
			if cr.Checksum() == sum {
				t.Errorf("flipping bit %d of %s left the checksum at %#x", b, name, sum)
			}
			flip(b)
		}
	}
	check("Cycles", 64, func(b uint) { cr.Cycles ^= 1 << b })
	check("GuestInsts", 64, func(b uint) { cr.GuestInsts ^= 1 << b })
	check("NumVRegs", 64, func(b uint) { cr.NumVRegs ^= 1 << b })
	check("FinalTarget", 64, func(b uint) { cr.FinalTarget ^= 1 << b })
	for r := range cr.IntOut {
		check(fmt.Sprintf("IntOut[%d]", r), 32, func(b uint) { cr.IntOut[r] ^= 1 << b })
		check(fmt.Sprintf("FloatOut[%d]", r), 32, func(b uint) { cr.FloatOut[r] ^= 1 << b })
	}
	for i := range cr.code {
		d := &cr.code[i]
		op := func(field string) string { return fmt.Sprintf("op %d %s", i, field) }
		check(op("imm"), 64, func(b uint) { d.imm ^= 1 << b })
		check(op("id"), 32, func(b uint) { d.id ^= 1 << b })
		check(op("dst"), 32, func(b uint) { d.dst ^= 1 << b })
		check(op("src0"), 32, func(b uint) { d.src0 ^= 1 << b })
		check(op("src1"), 32, func(b uint) { d.src1 ^= 1 << b })
		check(op("memBase"), 32, func(b uint) { d.memBase ^= 1 << b })
		check(op("arOffset"), 32, func(b uint) { d.arOffset ^= 1 << b })
		check(op("arMask"), 16, func(b uint) { d.arMask ^= 1 << b })
		check(op("memSize"), 8, func(b uint) { d.memSize ^= 1 << b })
		check(op("kind"), 8, func(b uint) { d.kind ^= 1 << b })
		check(op("gop"), 8, func(b uint) { d.gop ^= 1 << b })
		check(op("flags"), 8, func(b uint) { d.flags ^= 1 << b })
		check(op("xop"), 8, func(b uint) { d.xop ^= 1 << b })
	}
	check("intLive", 32, func(b uint) { cr.intLive ^= 1 << b })
	check("floatLive", 32, func(b uint) { cr.floatLive ^= 1 << b })
	if cr.Checksum() != sum {
		t.Fatal("the flips were not all undone")
	}
}
