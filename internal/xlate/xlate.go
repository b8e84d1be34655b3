// Package xlate translates superblocks into optimizer IR.
//
// Translation renames every guest register definition into a fresh virtual
// register, which removes all register anti- and output-dependences inside
// the region (only true dependences and memory dependences remain — the
// freedom the paper's speculative scheduler exploits). It also performs the
// lightweight symbolic address analysis the binary-level alias analysis
// relies on: each memory operation is canonicalized to root-register +
// constant displacement (or an absolute address) by folding copies, adds
// with constants, and constant loads.
//
// Ops, MemInfos and operand lists are carved out of an ir.Arena sized from
// the superblock (each guest instruction emits at most one op with at most
// two operands), so translation performs a constant number of heap
// allocations regardless of region size — and none at all once a recycled
// arena's slabs reach steady state (TranslateArena).
package xlate

import (
	"fmt"
	"sync"

	"smarq/internal/guest"
	"smarq/internal/ir"
	"smarq/internal/region"
)

type canonAddr struct {
	root ir.VReg // NoVReg when abs
	off  int64
	abs  bool
}

type translator struct {
	reg      *ir.Region
	ar       *ir.Arena
	curInt   [guest.NumRegs]ir.VReg
	curFloat [guest.NumRegs]ir.VReg
	next     ir.VReg

	// Constant and canonical-address views, indexed by vreg (vreg count is
	// bounded by 2*guest.NumRegs live-ins + one definition per inst).
	constOK  []bool
	constVal []int64
	canonOK  []bool
	canon    []canonAddr
}

// transPool recycles translator scratch (the constant and canonical
// views) across calls; the region data itself lives in the caller's
// arena.
var transPool = sync.Pool{New: func() interface{} { return new(translator) }}

// TranslateArena converts a superblock into an IR region carved out of
// ar. The caller owns the arena: every pointer in the returned region
// aliases arena memory and dies at the arena's next Reset, so long-lived
// consumers must copy out whatever they keep (vliw.Compile decodes the
// schedule into its own storage; ir.Freeze snapshots IR). Translating
// again into the same arena without a Reset is allowed (the compile retry
// ladder does this); the earlier region's slab space is simply left
// behind.
func TranslateArena(sb *region.Superblock, ar *ir.Arena) (*ir.Region, error) {
	n := len(sb.Insts)
	maxVRegs := 2*guest.NumRegs + n
	t := transPool.Get().(*translator)
	t.ar = ar
	t.reg = ar.NewRegion(n)
	t.reg.Entry = sb.Entry
	t.reg.FinalTarget = sb.FinalTarget
	t.sizeViews(maxVRegs)
	for r := 0; r < guest.NumRegs; r++ {
		t.curInt[r] = ir.LiveInInt(guest.Reg(r))
		t.curFloat[r] = ir.LiveInFloat(guest.Reg(r))
	}
	t.next = ir.VReg(2 * guest.NumRegs)
	// Live-in vregs are their own canonical roots — exactly canonOf's
	// fallback for vregs with no recorded canonical form, so nothing to
	// initialize.

	for _, in := range sb.Insts {
		if err := t.translateInst(in); err != nil {
			t.release()
			return nil, err
		}
	}

	reg := t.reg
	reg.NumVRegs = int(t.next)
	reg.IntOut = t.curInt
	reg.FloatOut = t.curFloat
	t.release()
	return reg, nil
}

// sizeViews resizes the constant/canonical views to maxVRegs, clearing
// only the validity flags (the value arrays are read through them).
func (t *translator) sizeViews(maxVRegs int) {
	if cap(t.constOK) < maxVRegs {
		t.constOK = make([]bool, maxVRegs)
		t.constVal = make([]int64, maxVRegs)
		t.canonOK = make([]bool, maxVRegs)
		t.canon = make([]canonAddr, maxVRegs)
		return
	}
	t.constOK = t.constOK[:maxVRegs]
	t.canonOK = t.canonOK[:maxVRegs]
	t.constVal = t.constVal[:maxVRegs]
	t.canon = t.canon[:maxVRegs]
	for i := range t.constOK {
		t.constOK[i] = false
	}
	for i := range t.canonOK {
		t.canonOK[i] = false
	}
}

// release drops the region references and returns the translator's
// scratch to the pool.
func (t *translator) release() {
	t.reg = nil
	t.ar = nil
	transPool.Put(t)
}

func (t *translator) fresh() ir.VReg {
	v := t.next
	t.next++
	return v
}

// emit appends a new op to the region, allocated from the arena.
func (t *translator) emit(o ir.Op) *ir.Op {
	o.ID = len(t.reg.Ops)
	o.AROffset = -1
	p := t.ar.NewOp(o)
	t.reg.Ops = append(t.reg.Ops, p)
	return p
}

// newMem places a MemInfo in the arena.
func (t *translator) newMem(m ir.MemInfo) *ir.MemInfo { return t.ar.NewMem(m) }

// srcs1/srcs2 and flags1/flags2 carve capped operand lists out of the
// arena slabs.
func (t *translator) srcs1(a ir.VReg) []ir.VReg { return t.ar.Srcs1(a) }

func (t *translator) srcs2(a, b ir.VReg) []ir.VReg { return t.ar.Srcs2(a, b) }

func (t *translator) flags1(a bool) []bool { return t.ar.Flags1(a) }

func (t *translator) flags2(a, b bool) []bool { return t.ar.Flags2(a, b) }

// defInt creates a fresh vreg for a guest integer register definition.
func (t *translator) defInt(r guest.Reg) ir.VReg {
	v := t.fresh()
	t.curInt[r] = v
	return v
}

func (t *translator) defFloat(r guest.Reg) ir.VReg {
	v := t.fresh()
	t.curFloat[r] = v
	return v
}

func (t *translator) canonOf(v ir.VReg) canonAddr {
	if v >= 0 && int(v) < len(t.canon) && t.canonOK[v] {
		return t.canon[v]
	}
	return canonAddr{root: v}
}

func (t *translator) setCanon(v ir.VReg, c canonAddr) {
	t.canonOK[v] = true
	t.canon[v] = c
}

func (t *translator) constOf(v ir.VReg) (int64, bool) {
	if v >= 0 && int(v) < len(t.constVal) && t.constOK[v] {
		return t.constVal[v], true
	}
	return 0, false
}

func (t *translator) setConst(v ir.VReg, c int64) {
	t.constOK[v] = true
	t.constVal[v] = c
}

func (t *translator) translateInst(ri region.Inst) error {
	in := ri.Inst
	op := in.Op
	switch {
	case op == guest.Nop, op == guest.Jmp, op == guest.Halt:
		// Jmp and Halt carry no region-level semantics: the region's
		// FinalTarget already encodes where control goes on completion.
		return nil

	case op.IsBranch():
		if !ri.IsGuard {
			return nil // both directions stay on trace
		}
		t.emit(ir.Op{
			Kind:         ir.Guard,
			GOp:          op,
			Dst:          ir.NoVReg,
			Srcs:         t.srcs2(t.curInt[in.Rs1], t.curInt[in.Rs2]),
			SrcFloat:     t.flags2(false, false),
			OnTraceTaken: ri.OnTraceTaken,
			OffTrace:     ri.OffTrace,
		})
		return nil

	case op.IsLoad():
		base := t.curInt[in.Rs1]
		var dst ir.VReg
		if op.IsFloat() {
			dst = t.defFloat(in.Rd)
		} else {
			dst = t.defInt(in.Rd)
		}
		c := t.canonOf(base)
		t.emit(ir.Op{
			Kind:     ir.Load,
			GOp:      op,
			Dst:      dst,
			DstFloat: op.IsFloat(),
			Srcs:     t.srcs1(base),
			SrcFloat: t.flags1(false),
			Imm:      in.Imm,
			Mem: t.newMem(ir.MemInfo{
				Base: base, Off: in.Imm, Size: op.AccessSize(),
				Root: c.root, RootOff: c.off + in.Imm, Abs: c.abs,
			}),
		})
		return nil

	case op.IsStore():
		base := t.curInt[in.Rs1]
		var val ir.VReg
		valFloat := op.IsFloat()
		if valFloat {
			val = t.curFloat[in.Rd]
		} else {
			val = t.curInt[in.Rd]
		}
		c := t.canonOf(base)
		t.emit(ir.Op{
			Kind:     ir.Store,
			GOp:      op,
			Dst:      ir.NoVReg,
			Srcs:     t.srcs2(val, base),
			SrcFloat: t.flags2(valFloat, false),
			Imm:      in.Imm,
			Mem: t.newMem(ir.MemInfo{
				Base: base, Off: in.Imm, Size: op.AccessSize(),
				Root: c.root, RootOff: c.off + in.Imm, Abs: c.abs,
			}),
		})
		return nil

	case op.IsFloat():
		// Float ALU: sources from the float file except CvtIF.
		var srcs []ir.VReg
		var sf []bool
		switch op {
		case guest.FLi:
			// no sources
		case guest.CvtIF:
			srcs = t.srcs1(t.curInt[in.Rs1])
			sf = t.flags1(false)
		case guest.FMov, guest.FNeg, guest.FAbs, guest.FSqrt:
			srcs = t.srcs1(t.curFloat[in.Rs1])
			sf = t.flags1(true)
		default:
			srcs = t.srcs2(t.curFloat[in.Rs1], t.curFloat[in.Rs2])
			sf = t.flags2(true, true)
		}
		t.emit(ir.Op{
			Kind: ir.Arith, GOp: op,
			Dst: t.defFloat(in.Rd), DstFloat: true,
			Srcs: srcs, SrcFloat: sf,
			FImm: in.FImm,
		})
		return nil

	case op == guest.CvtFI:
		t.emit(ir.Op{
			Kind: ir.Arith, GOp: op,
			Dst:  t.defInt(in.Rd),
			Srcs: t.srcs1(t.curFloat[in.Rs1]), SrcFloat: t.flags1(true),
		})
		return nil

	default:
		return t.translateIntALU(in)
	}
}

func (t *translator) translateIntALU(in guest.Inst) error {
	op := in.Op
	var srcs []ir.VReg
	switch op {
	case guest.Li:
		// no sources
	case guest.Mov:
		srcs = t.srcs1(t.curInt[in.Rs1])
	case guest.Addi, guest.Muli:
		srcs = t.srcs1(t.curInt[in.Rs1])
	case guest.Add, guest.Sub, guest.Mul, guest.Div, guest.And, guest.Or,
		guest.Xor, guest.Shl, guest.Shr, guest.Slt:
		srcs = t.srcs2(t.curInt[in.Rs1], t.curInt[in.Rs2])
	default:
		return fmt.Errorf("xlate: unhandled opcode %s", op)
	}
	dst := t.defInt(in.Rd)
	var sf []bool
	switch len(srcs) {
	case 1:
		sf = t.flags1(false)
	case 2:
		sf = t.flags2(false, false)
	}
	t.emit(ir.Op{
		Kind: ir.Arith, GOp: op,
		Dst: dst, Srcs: srcs, SrcFloat: sf, Imm: in.Imm,
	})
	t.propagate(op, dst, srcs, in.Imm)
	return nil
}

// propagate maintains the constant and canonical-address views used for
// memory disambiguation. Only patterns a binary-level analysis can see
// cheaply are folded: constant loads, copies, and additions of constants
// (§7 cites [13,14]: binary alias analysis must be simple to be usable in
// a dynamic optimizer).
func (t *translator) propagate(op guest.Opcode, dst ir.VReg, srcs []ir.VReg, imm int64) {
	switch op {
	case guest.Li:
		t.setConst(dst, imm)
		t.setCanon(dst, canonAddr{root: ir.NoVReg, off: imm, abs: true})
	case guest.Mov:
		if c, ok := t.constOf(srcs[0]); ok {
			t.setConst(dst, c)
		}
		t.setCanon(dst, t.canonOf(srcs[0]))
	case guest.Addi:
		if c, ok := t.constOf(srcs[0]); ok {
			t.setConst(dst, c+imm)
		}
		ca := t.canonOf(srcs[0])
		ca.off += imm
		t.setCanon(dst, ca)
	case guest.Add:
		c0, ok0 := t.constOf(srcs[0])
		c1, ok1 := t.constOf(srcs[1])
		switch {
		case ok0 && ok1:
			t.setConst(dst, c0+c1)
			t.setCanon(dst, canonAddr{root: ir.NoVReg, off: c0 + c1, abs: true})
		case ok1:
			ca := t.canonOf(srcs[0])
			ca.off += c1
			t.setCanon(dst, ca)
		case ok0:
			ca := t.canonOf(srcs[1])
			ca.off += c0
			t.setCanon(dst, ca)
		}
	case guest.Sub:
		if c1, ok := t.constOf(srcs[1]); ok {
			if c0, ok0 := t.constOf(srcs[0]); ok0 {
				t.setConst(dst, c0-c1)
				t.setCanon(dst, canonAddr{root: ir.NoVReg, off: c0 - c1, abs: true})
			} else {
				ca := t.canonOf(srcs[0])
				ca.off -= c1
				t.setCanon(dst, ca)
			}
		}
	case guest.Muli:
		if c, ok := t.constOf(srcs[0]); ok {
			t.setConst(dst, c*imm)
		}
	case guest.Mul:
		if c0, ok0 := t.constOf(srcs[0]); ok0 {
			if c1, ok1 := t.constOf(srcs[1]); ok1 {
				t.setConst(dst, c0*c1)
			}
		}
	}
}
