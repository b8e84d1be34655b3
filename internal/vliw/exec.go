// The allocation-free region execution engine.
//
// Compile decodes the scheduled []*ir.Op sequence into a flat array of
// decOp value structs, the only form of the code a CompiledRegion keeps,
// so the steady-state execute loop walks contiguous memory with no per-op
// pointer chasing. Each decoded op carries one fused execute opcode
// (xop), chosen at decode from its kind, guest opcode, access width and
// register file, so Execute costs one switch per op and every arm writes
// the vreg files directly. The region also carries its live-out masks:
// the guest registers a commit may change, the only ones it writes back.
// ExecContext holds the reusable execution state — the virtual register
// files and one pooled atomic.Region — and is borrowed per Run: the
// dynopt runtime takes one from a process-wide pool for each System.Run
// call and returns it idle, so a committed region entry performs zero
// heap allocations and a fresh System allocates none of this state. The
// detector is devirtualized once per entry: a type switch picks a
// concrete fast path (OrderedQueue/ALAT/Bitmask/None), a memory op calls
// it only when it has a P or C bit (or the detector must see every
// access: the ALAT and a generic Detector), and conflicts come back by
// value, so the no-conflict path never allocates either. The original
// *ir.Op-walking executor survives in the tests (ref_test.go) as the
// reference semantics; a differential test holds the two engines
// bit-identical.

package vliw

import (
	"fmt"
	"math"
	"math/bits"

	"smarq/internal/aliashw"
	"smarq/internal/atomic"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// decOp is one pre-decoded operation: every field the execute loop needs,
// flattened out of ir.Op (and its Srcs/SrcFloat slices and *MemInfo) into
// a 40-byte value struct. The kind-dependent operands share one word, imm,
// and the five booleans share one byte, flags; both are read only through
// the accessors below. xop is what Execute dispatches on; kind, gop and
// memSize stay for Validate, which requires xop to agree with them.
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
	xop   xop
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

// addr is a Load's or Store's effective address.
func (d *decOp) addr(vri []int64) uint64 { return uint64(vri[d.memBase] + d.memOff()) }

// rotateAmount is a Rotate's amount.
func (d *decOp) rotateAmount() int { return int(d.imm) }

// amovOffsets are an AMov's source and destination offsets.
func (d *decOp) amovOffsets() (src, dst int) { return int(int32(d.imm)), int(d.imm >> 32) }

// packAMov is the inverse of amovOffsets.
func packAMov(src, dst int) int64 { return int64(uint32(int32(src))) | int64(dst)<<32 }

// xop is a decoded op's fused execute opcode: one per Arith guest opcode,
// Copy per register file, Load and Store per guest memory opcode (access
// width × register file), Guard per branch opcode, Rotate and AMov. The
// zero value decodes from nothing, so a zeroed or corrupted op fails
// Validate instead of reaching Execute's default arm.
type xop uint8

const (
	xBad xop = iota

	// Arith, in guest opcode order.
	xNop
	xLi
	xMov
	xAdd
	xSub
	xMul
	xDiv
	xAnd
	xOr
	xXor
	xShl
	xShr
	xAddi
	xMuli
	xSlt
	xFLi
	xFMov
	xFAdd
	xFSub
	xFMul
	xFDiv
	xFNeg
	xFAbs
	xFSqrt
	xCvtIF
	xCvtFI

	xCopy  // integer file
	xFCopy // float file

	xLd1
	xLd2
	xLd4
	xLd8
	xFLd8
	xSt1
	xSt2
	xSt4
	xSt8
	xFSt8

	xBeq
	xBne
	xBlt
	xBge

	xRotate
	xAMov

	numXops
)

// gopXops is the fused opcode of each guest opcode an Arith, Load, Store
// or Guard op may carry.
var gopXops = [...]xop{
	guest.Nop: xNop, guest.Li: xLi, guest.Mov: xMov, guest.Add: xAdd, guest.Sub: xSub,
	guest.Mul: xMul, guest.Div: xDiv, guest.And: xAnd, guest.Or: xOr, guest.Xor: xXor,
	guest.Shl: xShl, guest.Shr: xShr, guest.Addi: xAddi, guest.Muli: xMuli, guest.Slt: xSlt,
	guest.FLi: xFLi, guest.FMov: xFMov, guest.FAdd: xFAdd, guest.FSub: xFSub, guest.FMul: xFMul,
	guest.FDiv: xFDiv, guest.FNeg: xFNeg, guest.FAbs: xFAbs, guest.FSqrt: xFSqrt,
	guest.CvtIF: xCvtIF, guest.CvtFI: xCvtFI,
	guest.Ld1: xLd1, guest.Ld2: xLd2, guest.Ld4: xLd4, guest.Ld8: xLd8, guest.FLd8: xFLd8,
	guest.St1: xSt1, guest.St2: xSt2, guest.St4: xSt4, guest.St8: xSt8, guest.FSt8: xFSt8,
	guest.Beq: xBeq, guest.Bne: xBne, guest.Blt: xBlt, guest.Bge: xBge,
}

// String names x after its guest opcode, or its kind where that has none.
func (x xop) String() string {
	switch x {
	case xCopy:
		return "copy"
	case xFCopy:
		return "fcopy"
	case xRotate:
		return "rotate"
	case xAMov:
		return "amov"
	}
	for gop, y := range gopXops {
		if y == x && x != xBad {
			return guest.Opcode(gop).String()
		}
	}
	return fmt.Sprintf("xop(%d)", uint8(x))
}

// fuse returns the fused opcode of an op, or xBad when the fields do not
// name one the executor runs: an Arith or Guard op's guest opcode must be
// of its kind, and a Load's or Store's must be a memory opcode of its
// direction whose access width and register file the op's memSize and
// dstFloat (Load) or srcFloat0 (Store) flag repeat.
func fuse(kind ir.Kind, gop guest.Opcode, memSize, flags uint8) xop {
	switch kind {
	case ir.Copy:
		if flags&flagDstFloat != 0 {
			return xFCopy
		}
		return xCopy
	case ir.Rotate:
		return xRotate
	case ir.AMov:
		return xAMov
	}
	if int(gop) >= len(gopXops) {
		return xBad
	}
	x := gopXops[gop]
	fileFlag := flagDstFloat
	switch {
	case kind == ir.Arith && x >= xNop && x <= xCvtFI, kind == ir.Guard && x >= xBeq && x <= xBge:
		return x
	case kind == ir.Load && x >= xLd1 && x <= xFLd8:
	case kind == ir.Store && x >= xSt1 && x <= xFSt8:
		fileFlag = flagSrcFloat0
	default:
		return xBad
	}
	if int(memSize) != gop.AccessSize() || (flags&fileFlag != 0) != gop.IsFloat() {
		return xBad
	}
	return x
}

// Fused opcode properties: the vreg fields an op of the opcode uses,
// each of which Validate requires present, and the register file it
// writes at dst.
const (
	useDst uint8 = 1 << iota
	useSrc0
	useSrc1
	useBase
	writesInt
	writesFloat
)

// xopProps holds each fused opcode's properties; Nop, Rotate and AMov
// have none.
var xopProps = func() [numXops]uint8 {
	const (
		i0  = useDst | writesInt
		i1  = i0 | useSrc0
		i2  = i1 | useSrc1
		f0  = useDst | writesFloat
		f1  = f0 | useSrc0
		f2  = f1 | useSrc1
		ld  = useDst | useBase | writesInt
		fld = useDst | useBase | writesFloat
		st  = useSrc0 | useBase
		br  = useSrc0 | useSrc1
	)
	return [numXops]uint8{
		xLi: i0, xMov: i1, xAdd: i2, xSub: i2, xMul: i2, xDiv: i2, xAnd: i2, xOr: i2, xXor: i2,
		xShl: i2, xShr: i2, xAddi: i1, xMuli: i1, xSlt: i2, xCvtFI: i1, xCopy: i1,
		xFLi: f0, xFMov: f1, xFAdd: f2, xFSub: f2, xFMul: f2, xFDiv: f2, xFNeg: f1, xFAbs: f1,
		xFSqrt: f1, xCvtIF: f1, xFCopy: f1,
		xLd1: ld, xLd2: ld, xLd4: ld, xLd8: ld, xFLd8: fld,
		xSt1: st, xSt2: st, xSt4: st, xSt8: st, xFSt8: st,
		xBeq: br, xBne: br, xBlt: br, xBge: br,
	}
}()

// The live-out masks have one bit per guest register.
var _ [32 - guest.NumRegs]struct{}

// liveInWrites returns the live-in vreg d writes, if any, as a bit of
// its file's register mask: the integer file's live-ins are vregs
// [0, NumRegs), the float file's [NumRegs, 2*NumRegs).
func (d *decOp) liveInWrites() (ints, floats uint32) {
	switch props := xopProps[d.xop]; {
	case props&writesInt != 0 && uint32(d.dst) < guest.NumRegs:
		return 1 << uint(d.dst), 0
	case props&writesFloat != 0 && uint32(d.dst-guest.NumRegs) < guest.NumRegs:
		return 0, 1 << uint(d.dst-guest.NumRegs)
	}
	return 0, 0
}

// liveOutMasks returns the guest registers a commit writes back, given
// the registers whose live-in vregs the stream writes (liveInWrites):
// register r's bit is set unless its live-out vreg is its own live-in
// vreg and no op writes that vreg, in which case the vreg still holds
// the value Execute copied in from the guest state and the write-back
// would store it unchanged.
func liveOutMasks(intOut, floatOut *[guest.NumRegs]ir.VReg, intWritten, floatWritten uint32) (ints, floats uint32) {
	ints, floats = intWritten, floatWritten
	for r := 0; r < guest.NumRegs; r++ {
		if intOut[r] != ir.LiveInInt(guest.Reg(r)) {
			ints |= 1 << uint(r)
		}
		if floatOut[r] != ir.LiveInFloat(guest.Reg(r)) {
			floats |= 1 << uint(r)
		}
	}
	return ints, floats
}

// decode flattens a scheduled sequence into the executable form and
// returns the live-in vregs it writes (liveInWrites). An op that fuses to
// no execute opcode (an unknown kind, or a guest opcode, width or
// register file its kind cannot carry) fails at compile time rather than
// execution time.
func decode(seq []*ir.Op) (dec []decOp, intWritten, floatWritten uint32) {
	dec = make([]decOp, len(seq))
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
		}
		if d.xop = fuse(d.kind, d.gop, d.memSize, d.flags); d.xop == xBad {
			panic(fmt.Sprintf("vliw: cannot decode %v op %d (opcode %s, %d-byte access)", op.Kind, op.ID, op.GOp, d.memSize))
		}
		ints, floats := d.liveInWrites()
		intWritten |= ints
		floatWritten |= floats
	}
	return dec, intWritten, floatWritten
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

// checkFlags are the decOp flags that make a memory op an alias-register
// user; only those reach the ordered queue, the bit-mask file and None,
// on which an op with neither bit has no effect.
const checkFlags = flagP | flagC

// detDispatch routes OnMem to the concrete detector without interface
// dispatch on the hot path; the generic arm keeps third-party Detector
// implementations working. It also keeps the entry's alias-register
// occupancy high-water mark (telemetry).
type detDispatch struct {
	kind detKind
	// all is set when every memory op must reach the detector: the ALAT
	// checks every store whatever its bits, and a generic Detector may
	// act on any call.
	all  bool
	arHW int32
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
		return detDispatch{kind: detALAT, all: true, al: d, det: det}
	case *aliashw.Bitmask:
		return detDispatch{kind: detBitmask, bm: d, det: det}
	case aliashw.None:
		return detDispatch{kind: detNone, det: det}
	default:
		return detDispatch{kind: detGeneric, all: true, det: det}
	}
}

// sees reports whether op's access must reach the detector.
func (dd *detDispatch) sees(op *decOp) bool { return op.flags&checkFlags != 0 || dd.all }

// onMem performs the alias check/set for one memory op, returning the
// conflict by value (hit=false on the common no-conflict path).
func (dd *detDispatch) onMem(op *decOp, isStore bool, lo, hi uint64) (aliashw.Conflict, bool) {
	if op.p() && op.arOffset+1 > dd.arHW {
		dd.arHW = op.arOffset + 1
	}
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

// rotate, amov and reset are cold relative to OnMem but still
// devirtualized for the ordered queue (the only hardware where rotate
// and amov do anything).
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

func (dd *detDispatch) reset() {
	if dd.kind == detOrdered {
		dd.oq.Reset()
		return
	}
	dd.det.Reset()
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

// abort rolls the entry back after op n and resets the detector.
func (ctx *ExecContext) abort(dd *detDispatch, out Outcome, conf *aliashw.Conflict, n int) ExecResult {
	buffered := ctx.ar.StoreCount()
	ctx.ar.Rollback()
	dd.reset()
	ctx.busy = false
	return ExecResult{Outcome: out, Conflict: conf, OpsExecuted: n,
		ARHighWater: int(dd.arHW), StoresBuffered: buffered}
}

// aliasAbort is abort on an alias exception. The conflict is copied to
// the heap here, on the exception path, never on the checking path.
func (ctx *ExecContext) aliasAbort(dd *detDispatch, conf aliashw.Conflict, n int) ExecResult {
	return ctx.abort(dd, AliasException, &conf, n)
}

// load is the slow path of a load the page fast path declined.
func load(mem *guest.Memory, addr uint64, size int) (uint64, bool) {
	v, err := mem.Load(addr, size)
	return v, err == nil
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
	pages := mem.Pages()
	dec := cr.dec

	ctx.busy = true
	ctx.ar.Begin(st, mem)

	for n := range dec {
		op := &dec[n]
		switch op.xop {
		case xNop:
		case xLi:
			vri[op.dst] = op.imm
		case xMov:
			vri[op.dst] = vri[op.src0]
		case xAdd:
			vri[op.dst] = vri[op.src0] + vri[op.src1]
		case xSub:
			vri[op.dst] = vri[op.src0] - vri[op.src1]
		case xMul:
			vri[op.dst] = vri[op.src0] * vri[op.src1]
		case xDiv:
			if vri[op.src1] == 0 {
				vri[op.dst] = 0
			} else {
				vri[op.dst] = vri[op.src0] / vri[op.src1]
			}
		case xAnd:
			vri[op.dst] = vri[op.src0] & vri[op.src1]
		case xOr:
			vri[op.dst] = vri[op.src0] | vri[op.src1]
		case xXor:
			vri[op.dst] = vri[op.src0] ^ vri[op.src1]
		case xShl:
			vri[op.dst] = vri[op.src0] << (uint64(vri[op.src1]) & 63)
		case xShr:
			vri[op.dst] = vri[op.src0] >> (uint64(vri[op.src1]) & 63)
		case xAddi:
			vri[op.dst] = vri[op.src0] + op.imm
		case xMuli:
			vri[op.dst] = vri[op.src0] * op.imm
		case xSlt:
			if vri[op.src0] < vri[op.src1] {
				vri[op.dst] = 1
			} else {
				vri[op.dst] = 0
			}
		case xFLi:
			vrf[op.dst] = op.fimm()
		case xFMov:
			vrf[op.dst] = vrf[op.src0]
		case xFAdd:
			vrf[op.dst] = vrf[op.src0] + vrf[op.src1]
		case xFSub:
			vrf[op.dst] = vrf[op.src0] - vrf[op.src1]
		case xFMul:
			vrf[op.dst] = vrf[op.src0] * vrf[op.src1]
		case xFDiv:
			vrf[op.dst] = vrf[op.src0] / vrf[op.src1]
		case xFNeg:
			vrf[op.dst] = -vrf[op.src0]
		case xFAbs:
			vrf[op.dst] = math.Abs(vrf[op.src0])
		case xFSqrt:
			vrf[op.dst] = math.Sqrt(vrf[op.src0])
		case xCvtIF:
			vrf[op.dst] = float64(vri[op.src0])
		case xCvtFI:
			vri[op.dst] = int64(vrf[op.src0])

		case xCopy:
			vri[op.dst] = vri[op.src0]
		case xFCopy:
			vrf[op.dst] = vrf[op.src0]

		// Loads: the alias check, then the page fast path, then
		// Memory.Load for anything it declines (and the fault).
		case xLd1:
			addr := op.addr(vri)
			if dd.sees(op) {
				if conf, hit := dd.onMem(op, false, addr, addr+1); hit {
					return ctx.aliasAbort(&dd, conf, n)
				}
			}
			v, ok := guest.PageLoad1(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 1); !ok {
					return ctx.abort(&dd, Fault, nil, n)
				}
			}
			vri[op.dst] = int64(v)
		case xLd2:
			addr := op.addr(vri)
			if dd.sees(op) {
				if conf, hit := dd.onMem(op, false, addr, addr+2); hit {
					return ctx.aliasAbort(&dd, conf, n)
				}
			}
			v, ok := guest.PageLoad2(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 2); !ok {
					return ctx.abort(&dd, Fault, nil, n)
				}
			}
			vri[op.dst] = int64(v)
		case xLd4:
			addr := op.addr(vri)
			if dd.sees(op) {
				if conf, hit := dd.onMem(op, false, addr, addr+4); hit {
					return ctx.aliasAbort(&dd, conf, n)
				}
			}
			v, ok := guest.PageLoad4(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 4); !ok {
					return ctx.abort(&dd, Fault, nil, n)
				}
			}
			vri[op.dst] = int64(v)
		case xLd8:
			addr := op.addr(vri)
			if dd.sees(op) {
				if conf, hit := dd.onMem(op, false, addr, addr+8); hit {
					return ctx.aliasAbort(&dd, conf, n)
				}
			}
			v, ok := guest.PageLoad8(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 8); !ok {
					return ctx.abort(&dd, Fault, nil, n)
				}
			}
			vri[op.dst] = int64(v)
		case xFLd8:
			addr := op.addr(vri)
			if dd.sees(op) {
				if conf, hit := dd.onMem(op, false, addr, addr+8); hit {
					return ctx.aliasAbort(&dd, conf, n)
				}
			}
			v, ok := guest.PageLoad8(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 8); !ok {
					return ctx.abort(&dd, Fault, nil, n)
				}
			}
			vrf[op.dst] = math.Float64frombits(v)

		// Stores: the alias check, then the atomic region's logged
		// write-through.
		case xSt1, xSt2, xSt4, xSt8:
			addr := op.addr(vri)
			size := int(op.memSize)
			if dd.sees(op) {
				if conf, hit := dd.onMem(op, true, addr, addr+uint64(size)); hit {
					return ctx.aliasAbort(&dd, conf, n)
				}
			}
			if err := ctx.ar.Store(addr, size, uint64(vri[op.src0])); err != nil {
				return ctx.abort(&dd, Fault, nil, n)
			}
		case xFSt8:
			addr := op.addr(vri)
			if dd.sees(op) {
				if conf, hit := dd.onMem(op, true, addr, addr+8); hit {
					return ctx.aliasAbort(&dd, conf, n)
				}
			}
			if err := ctx.ar.Store(addr, 8, math.Float64bits(vrf[op.src0])); err != nil {
				return ctx.abort(&dd, Fault, nil, n)
			}

		// Guards: the region stays on trace while the branch goes the way
		// it went when the region was formed.
		case xBeq:
			if (vri[op.src0] == vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(&dd, GuardFail, nil, n)
			}
		case xBne:
			if (vri[op.src0] != vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(&dd, GuardFail, nil, n)
			}
		case xBlt:
			if (vri[op.src0] < vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(&dd, GuardFail, nil, n)
			}
		case xBge:
			if (vri[op.src0] >= vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(&dd, GuardFail, nil, n)
			}

		case xRotate:
			dd.rotate(op.rotateAmount())
		case xAMov:
			dd.amov(op.amovOffsets())

		default: // decode never produces one, and Validate rejects it
			panic(fmt.Sprintf("vliw: cannot execute fused opcode %v of slot %d", op.xop, n))
		}
	}

	// Commit: write the live-out virtual registers of the registers the
	// region may change back to the guest state, make the stores
	// permanent, clear the detector.
	for m := cr.intLive; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		st.R[r] = vri[cr.IntOut[r]]
	}
	for m := cr.floatLive; m != 0; m &= m - 1 {
		r := bits.TrailingZeros32(m)
		st.F[r] = vrf[cr.FloatOut[r]]
	}
	buffered := ctx.ar.StoreCount()
	ctx.ar.Commit()
	dd.reset()
	ctx.busy = false
	return ExecResult{Outcome: Commit, NextBlock: cr.FinalTarget, OpsExecuted: len(dec),
		ARHighWater: int(dd.arHW), StoresBuffered: buffered}
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
