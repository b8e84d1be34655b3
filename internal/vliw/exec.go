// The allocation-free region execution engine.
//
// Compile decodes the scheduled []*ir.Op sequence into a flat array of
// decOp value structs, the only form of the code a CompiledRegion keeps,
// so the steady-state execute loop walks contiguous memory with no per-op
// pointer chasing. ExecContext holds the reusable execution state — the
// virtual register files and one pooled atomic.Region — and is borrowed
// per Run: the dynopt runtime takes one from a process-wide pool for each
// System.Run call and returns it idle, so a committed region entry
// performs zero heap allocations and a fresh System allocates none of
// this state. The detector is devirtualized once per entry: a type
// switch picks a concrete fast path (OrderedQueue/ALAT/Bitmask/None) and
// conflicts come back by value, so the no-conflict path never allocates
// either. The original *ir.Op-walking executor survives in the tests
// (ref_test.go) as the reference semantics; a differential test holds the
// two engines bit-identical.

package vliw

import (
	"fmt"
	"math"

	"smarq/internal/aliashw"
	"smarq/internal/atomic"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// decOp is one pre-decoded operation: every field the execute loop needs,
// flattened out of ir.Op (and its Srcs/SrcFloat slices and *MemInfo) into
// a 40-byte value struct. The kind-dependent operands share one word, imm,
// and the five booleans share one byte, flags; both are read only through
// the accessors below.
//
//	kind        imm holds
//	Arith       the immediate; for FLi, the float's IEEE-754 bit pattern
//	Load/Store  the address offset
//	Rotate      the rotation amount
//	AMov        the source offset (low 32 bits) and destination offset (high 32)
//	Copy/Guard  zero
type decOp struct {
	imm int64

	id       int32 // original op ID — the alias-conflict identity
	dst      int32
	src0     int32
	src1     int32
	memBase  int32
	arOffset int32

	arMask  uint16
	memSize uint8

	kind  ir.Kind
	gop   guest.Opcode
	flags uint8
}

// decOp flag bits.
const (
	flagDstFloat uint8 = 1 << iota
	flagSrcFloat0
	flagP
	flagC
	flagOnTraceTaken
)

func (d *decOp) setFlag(bit uint8, on bool) {
	if on {
		d.flags |= bit
	}
}

func (d *decOp) dstFloat() bool     { return d.flags&flagDstFloat != 0 }
func (d *decOp) srcFloat0() bool    { return d.flags&flagSrcFloat0 != 0 }
func (d *decOp) p() bool            { return d.flags&flagP != 0 }
func (d *decOp) c() bool            { return d.flags&flagC != 0 }
func (d *decOp) onTraceTaken() bool { return d.flags&flagOnTraceTaken != 0 }

// fimm is an FLi's immediate.
func (d *decOp) fimm() float64 { return math.Float64frombits(uint64(d.imm)) }

// memOff is a Load's or Store's address offset.
func (d *decOp) memOff() int64 { return d.imm }

// rotateAmount is a Rotate's amount.
func (d *decOp) rotateAmount() int { return int(d.imm) }

// amovOffsets are an AMov's source and destination offsets.
func (d *decOp) amovOffsets() (src, dst int) { return int(int32(d.imm)), int(d.imm >> 32) }

// packAMov is the inverse of amovOffsets.
func packAMov(src, dst int) int64 { return int64(uint32(int32(src))) | int64(dst)<<32 }

// decode flattens a scheduled sequence into the executable form. Unknown
// kinds fail at compile time rather than execution time.
func decode(seq []*ir.Op) []decOp {
	dec := make([]decOp, len(seq))
	for i, op := range seq {
		d := &dec[i]
		d.id = int32(op.ID)
		d.kind = op.Kind
		d.gop = op.GOp
		d.dst = int32(op.Dst)
		d.src0, d.src1 = int32(ir.NoVReg), int32(ir.NoVReg)
		if len(op.Srcs) > 0 {
			d.src0 = int32(op.Srcs[0])
			d.setFlag(flagSrcFloat0, op.SrcFloat[0])
		}
		if len(op.Srcs) > 1 {
			d.src1 = int32(op.Srcs[1])
		}
		d.arOffset = int32(op.AROffset)
		d.arMask = op.ARMask
		d.setFlag(flagDstFloat, op.DstFloat)
		d.setFlag(flagP, op.P)
		d.setFlag(flagC, op.C)
		d.setFlag(flagOnTraceTaken, op.OnTraceTaken)
		switch op.Kind {
		case ir.Arith:
			d.imm = op.Imm
			if op.GOp == guest.FLi {
				d.imm = int64(math.Float64bits(op.FImm))
			}
		case ir.Load, ir.Store:
			d.memBase = int32(op.Mem.Base)
			d.memSize = uint8(op.Mem.Size)
			d.imm = op.Mem.Off
		case ir.Rotate:
			d.imm = int64(op.Amount)
		case ir.AMov:
			d.imm = packAMov(op.SrcOff, op.DstOff)
		case ir.Copy, ir.Guard:
		default:
			panic(fmt.Sprintf("vliw: cannot decode op kind %v", op.Kind))
		}
	}
	return dec
}

// detKind tags the concrete detector type resolved once per region entry.
type detKind uint8

const (
	detGeneric detKind = iota
	detOrdered
	detALAT
	detBitmask
	detNone
)

// detDispatch routes OnMem to the concrete detector without interface
// dispatch on the hot path; the generic arm keeps third-party Detector
// implementations working.
type detDispatch struct {
	kind detKind
	oq   *aliashw.OrderedQueue
	al   *aliashw.ALAT
	bm   *aliashw.Bitmask
	det  aliashw.Detector
}

func dispatchFor(det aliashw.Detector) detDispatch {
	switch d := det.(type) {
	case *aliashw.OrderedQueue:
		return detDispatch{kind: detOrdered, oq: d, det: det}
	case *aliashw.ALAT:
		return detDispatch{kind: detALAT, al: d, det: det}
	case *aliashw.Bitmask:
		return detDispatch{kind: detBitmask, bm: d, det: det}
	case aliashw.None:
		return detDispatch{kind: detNone, det: det}
	default:
		return detDispatch{kind: detGeneric, det: det}
	}
}

// onMem performs the alias check/set for one memory op, returning the
// conflict by value (hit=false on the common no-conflict path).
func (dd *detDispatch) onMem(op *decOp, isStore bool, lo, hi uint64) (aliashw.Conflict, bool) {
	switch dd.kind {
	case detOrdered:
		return dd.oq.OnMemV(int(op.id), isStore, op.p(), op.c(), int(op.arOffset), lo, hi)
	case detALAT:
		return dd.al.OnMemV(int(op.id), isStore, op.p(), op.c(), lo, hi)
	case detBitmask:
		return dd.bm.OnMemV(int(op.id), isStore, op.p(), op.c(), int(op.arOffset), op.arMask, lo, hi)
	case detNone:
		return aliashw.Conflict{}, false
	default:
		if cp := dd.det.OnMem(int(op.id), isStore, op.p(), op.c(), int(op.arOffset), op.arMask, lo, hi); cp != nil {
			return *cp, true
		}
		return aliashw.Conflict{}, false
	}
}

// rotate and amov are cold relative to OnMem but still devirtualized for
// the ordered queue (the only hardware where they do anything).
func (dd *detDispatch) rotate(n int) {
	if dd.kind == detOrdered {
		dd.oq.Rotate(n)
		return
	}
	dd.det.Rotate(n)
}

func (dd *detDispatch) amov(src, dst int) {
	if dd.kind == detOrdered {
		dd.oq.AMov(src, dst)
		return
	}
	dd.det.AMov(src, dst)
}

// ExecContext is the reusable execution state, borrowed per Run: the
// virtual register files and the pooled atomic region. A zero ExecContext
// is ready to use; it must not be shared between concurrently executing
// systems. No region entry depends on what an earlier entry left behind
// (Execute initializes every vreg it reads and re-arms the atomic
// region), so an idle context may move between systems. Pooling
// preserves the atomic.Region single-use contract — each entry re-arms
// the same region, and between Begin and Commit/Rollback it behaves
// exactly like a fresh one.
type ExecContext struct {
	vri []int64
	vrf []float64
	ar  atomic.Region
	// busy is set for the whole of an Execute call and cleared once its
	// atomic region is finished and its detector reset (see Idle).
	busy bool
}

// Idle reports whether no region entry is in flight: every Execute has
// returned, so its atomic region is finished and the detector it ran
// against was reset. A context whose Execute panicked stays busy, and its
// detector in an unknown state; neither may be reused.
func (ctx *ExecContext) Idle() bool { return !ctx.busy && ctx.ar.Finished() }

// Detach drops an idle context's references to the guest state and memory
// of its last entry, keeping its storage, so a pooled context does not
// keep a finished guest alive. It panics on a busy context.
func (ctx *ExecContext) Detach() {
	if ctx.busy {
		panic("vliw: Detach on a busy ExecContext")
	}
	ctx.ar.Detach()
}

// Execute runs a compiled region against the guest state, memory, and
// alias detector, inside an atomic region. On anything but Commit the
// architectural state is rolled back to the region entry and the detector
// reset. The steady-state commit path performs zero heap allocations.
func (ctx *ExecContext) Execute(cr *CompiledRegion, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	nv := cr.NumVRegs
	if cap(ctx.vri) < nv {
		ctx.vri = make([]int64, nv)
		ctx.vrf = make([]float64, nv)
	}
	vri := ctx.vri[:nv]
	vrf := ctx.vrf[:nv]
	// Live-ins occupy fixed ranges (ir.Region: vregs [0, 2*NumRegs) are
	// the live-in guest registers, integer file first): vri[0:NumRegs]
	// holds the integer live-ins and vrf[NumRegs:2*NumRegs] the float
	// ones. Bulk-copy those and zero only the complement, matching the
	// fresh-slices semantics of the reference executor without clearing
	// words that are about to be overwritten.
	const nr = guest.NumRegs
	copy(vri[:nr], st.R[:])
	copy(vrf[nr:2*nr], st.F[:])
	clear(vri[nr:])
	clear(vrf[:nr])
	clear(vrf[2*nr:])

	dd := dispatchFor(det)
	dec := cr.dec

	ctx.busy = true
	ctx.ar.Begin(st, mem)
	arHW := int32(0) // alias-register occupancy high-water (telemetry)
	abort := func(out Outcome, conf *aliashw.Conflict, n int) ExecResult {
		buffered := ctx.ar.StoreCount()
		ctx.ar.Rollback()
		det.Reset()
		ctx.busy = false
		return ExecResult{Outcome: out, Conflict: conf, OpsExecuted: n,
			ARHighWater: int(arHW), StoresBuffered: buffered}
	}

	for n := range dec {
		op := &dec[n]
		switch op.kind {
		case ir.Arith:
			execArithDec(op, vri, vrf)

		case ir.Copy:
			if op.dstFloat() {
				vrf[op.dst] = vrf[op.src0]
			} else {
				vri[op.dst] = vri[op.src0]
			}

		case ir.Load:
			addr := uint64(vri[op.memBase] + op.memOff())
			size := int(op.memSize)
			if op.p() && op.arOffset+1 > arHW {
				arHW = op.arOffset + 1
			}
			if conf, hit := dd.onMem(op, false, addr, addr+uint64(size)); hit {
				c := conf
				return abort(AliasException, &c, n)
			}
			bits, err := mem.Load(addr, size)
			if err != nil {
				return abort(Fault, nil, n)
			}
			if op.dstFloat() {
				vrf[op.dst] = math.Float64frombits(bits)
			} else {
				vri[op.dst] = int64(bits)
			}

		case ir.Store:
			addr := uint64(vri[op.memBase] + op.memOff())
			size := int(op.memSize)
			if op.p() && op.arOffset+1 > arHW {
				arHW = op.arOffset + 1
			}
			if conf, hit := dd.onMem(op, true, addr, addr+uint64(size)); hit {
				c := conf
				return abort(AliasException, &c, n)
			}
			var bits uint64
			if op.srcFloat0() {
				bits = math.Float64bits(vrf[op.src0])
			} else {
				bits = uint64(vri[op.src0])
			}
			if err := ctx.ar.Store(addr, size, bits); err != nil {
				return abort(Fault, nil, n)
			}

		case ir.Guard:
			if evalGuardDec(op, vri) != op.onTraceTaken() {
				return abort(GuardFail, nil, n)
			}

		case ir.Rotate:
			dd.rotate(op.rotateAmount())

		default: // ir.AMov — decode rejects anything else
			dd.amov(op.amovOffsets())
		}
	}

	// Commit: write the live-out virtual registers back to the guest
	// state, make the stores permanent, clear the detector.
	for r := 0; r < guest.NumRegs; r++ {
		st.R[r] = vri[cr.IntOut[r]]
		st.F[r] = vrf[cr.FloatOut[r]]
	}
	buffered := ctx.ar.StoreCount()
	ctx.ar.Commit()
	det.Reset()
	ctx.busy = false
	return ExecResult{Outcome: Commit, NextBlock: cr.FinalTarget, OpsExecuted: len(dec),
		ARHighWater: int(arHW), StoresBuffered: buffered}
}

// Execute is the context-free convenience entry point: it runs the region
// through a fresh ExecContext. Long-running callers (the dynopt runtime)
// borrow a pooled ExecContext per Run and call its Execute method instead,
// so the vreg files, checkpoint and undo log are recycled across entries
// and across systems.
func Execute(cr *CompiledRegion, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	var ctx ExecContext
	return ctx.Execute(cr, st, mem, det)
}

// execArithDec evaluates a register-to-register op on the vreg files,
// mirroring guest.Exec semantics (and execArith in machine.go exactly).
func execArithDec(op *decOp, i []int64, f []float64) {
	switch op.gop {
	case guest.Nop:
	case guest.Li:
		i[op.dst] = op.imm
	case guest.Mov:
		i[op.dst] = i[op.src0]
	case guest.Add:
		i[op.dst] = i[op.src0] + i[op.src1]
	case guest.Sub:
		i[op.dst] = i[op.src0] - i[op.src1]
	case guest.Mul:
		i[op.dst] = i[op.src0] * i[op.src1]
	case guest.Div:
		if i[op.src1] == 0 {
			i[op.dst] = 0
		} else {
			i[op.dst] = i[op.src0] / i[op.src1]
		}
	case guest.And:
		i[op.dst] = i[op.src0] & i[op.src1]
	case guest.Or:
		i[op.dst] = i[op.src0] | i[op.src1]
	case guest.Xor:
		i[op.dst] = i[op.src0] ^ i[op.src1]
	case guest.Shl:
		i[op.dst] = i[op.src0] << (uint64(i[op.src1]) & 63)
	case guest.Shr:
		i[op.dst] = i[op.src0] >> (uint64(i[op.src1]) & 63)
	case guest.Addi:
		i[op.dst] = i[op.src0] + op.imm
	case guest.Muli:
		i[op.dst] = i[op.src0] * op.imm
	case guest.Slt:
		if i[op.src0] < i[op.src1] {
			i[op.dst] = 1
		} else {
			i[op.dst] = 0
		}
	case guest.FLi:
		f[op.dst] = op.fimm()
	case guest.FMov:
		f[op.dst] = f[op.src0]
	case guest.FAdd:
		f[op.dst] = f[op.src0] + f[op.src1]
	case guest.FSub:
		f[op.dst] = f[op.src0] - f[op.src1]
	case guest.FMul:
		f[op.dst] = f[op.src0] * f[op.src1]
	case guest.FDiv:
		f[op.dst] = f[op.src0] / f[op.src1]
	case guest.FNeg:
		f[op.dst] = -f[op.src0]
	case guest.FAbs:
		f[op.dst] = math.Abs(f[op.src0])
	case guest.FSqrt:
		f[op.dst] = math.Sqrt(f[op.src0])
	case guest.CvtIF:
		f[op.dst] = float64(i[op.src0])
	case guest.CvtFI:
		i[op.dst] = int64(f[op.src0])
	default:
		panic(fmt.Sprintf("vliw: cannot execute arith op %s", op.gop))
	}
}

// evalGuardDec evaluates a guard's branch condition: true means "taken".
func evalGuardDec(op *decOp, i []int64) bool {
	a, b := i[op.src0], i[op.src1]
	switch op.gop {
	case guest.Beq:
		return a == b
	case guest.Bne:
		return a != b
	case guest.Blt:
		return a < b
	case guest.Bge:
		return a >= b
	default:
		panic(fmt.Sprintf("vliw: guard with opcode %s", op.gop))
	}
}
