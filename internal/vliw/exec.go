// The allocation-free region execution engine.
//
// Compile decodes the scheduled []*ir.Op sequence into a flat array of
// decOp value structs; Bake then lowers that stream, in place, into the
// form the host runs for one alias hardware (bake.go). It evaluates the
// hardware's model over op identities once (aliashw.Evaluator): a region
// entry runs a prefix of its schedule and every detector starts it empty,
// so each memory op's compare list — which earlier ops it checks, in the
// hardware's order — is fixed, and only addresses are dynamic. The lists
// are stored as one flat array of origin slots, a length per op. The bake
// also folds index arithmetic whose only readers form addresses (an add,
// and a power-of-two muli feeding it) into the memory ops, which compute
// base + index<<shift + offset, and drops those ops, rotates and AMOVs
// from the stream. What stays is one stream: the region keeps no other.
//
// Execute (Run, for a baked region) costs one switch per op, and every
// arm writes the vreg files directly. An origin op records its [lo, hi)
// in a per-context slot; a checking op walks its list and stops at the
// first overlap. Two 256-bit sets of hashed 8-byte granules — those any
// origin accessed, and those store origins wrote — let a checker whose
// granules are all clear skip its walk: overlapping ranges share a
// granule, so the skip is exact. Checks are counted statically: a commit
// performed every list, and an abort every list before its op plus the
// conflict's position. The entry takes no guest-state checkpoint — the
// guest registers are written only at commit — only the atomic region's
// store undo log, and zeroes only the vregs the stream reads before it
// writes them. ExecContext holds the reusable state (vreg files, origin
// ranges, granule sets, the atomic region) and is borrowed per Run, so a
// committed entry allocates nothing. The original
// *ir.Op-walking executor over the address-level detectors survives in
// the tests (ref_test.go) as the reference semantics; differential tests
// hold the two engines identical, conflicts and counts included.

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
// and the boolean flags share one byte, flags; both are read only through
// the accessors below. xop is what Execute dispatches on; kind, gop and
// memSize stay for Validate, which requires xop to agree with them.
//
//	kind        imm holds
//	Arith       the immediate; for FLi, the float's IEEE-754 bit pattern
//	Load/Store  the address offset
//	Rotate      the rotation amount
//	AMov        the source offset (low 32 bits) and destination offset (high 32)
//	Copy/Guard  zero
//
// Baking (bake.go) gives a memory op an index: its address is
// vri[memBase] + vri[src1]<<shift + imm, with src1 the zero vreg (one
// past the region's) when nothing is folded into it. arMask, the
// bit-mask hardware's check mask until then, becomes the length of the
// op's check list.
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
	shift uint8
}

// decOp flag bits. The first five come from the IR op; the last three
// are set by the bake, on memory ops only.
const (
	flagDstFloat uint8 = 1 << iota
	flagSrcFloat0
	flagP
	flagC
	flagOnTraceTaken
	// flagOrigin: the op's range is in some check list, so it records it.
	flagOrigin
	// flagList: the op has a check list (arMask holds its length).
	flagList
	// flagStoreList: every origin in the op's check list is a store.
	flagStoreList

	// aliasFlags mark a memory op that has alias work at run time.
	aliasFlags = flagOrigin | flagList
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

// addr is a baked Load's or Store's effective address.
func (d *decOp) addr(vri []int64) uint64 {
	return uint64(vri[d.memBase] + vri[d.src1]<<(d.shift&63) + d.memOff())
}

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

// isMem reports whether x is a Load or Store opcode.
func (x xop) isMem() bool { return x >= xLd1 && x <= xFSt8 }

// isStore reports whether x is a Store opcode.
func (x xop) isStore() bool { return x >= xSt1 && x <= xFSt8 }

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
// each of which Validate requires present, the register file it writes at
// dst, and which of src0 and src1 it reads from the float file (the
// others it uses read the integer file, as a memory op's base always
// does).
const (
	useDst uint8 = 1 << iota
	useSrc0
	useSrc1
	useBase
	writesInt
	writesFloat
	floatSrc0
	floatSrc1
)

// xopProps holds each fused opcode's properties; Nop, Rotate and AMov
// have none.
var xopProps = func() [numXops]uint8 {
	const (
		i0  = useDst | writesInt
		i1  = i0 | useSrc0
		i2  = i1 | useSrc1
		f0  = useDst | writesFloat
		f1  = f0 | useSrc0 | floatSrc0
		f2  = f1 | useSrc1 | floatSrc1
		ld  = useDst | useBase | writesInt
		fld = useDst | useBase | writesFloat
		st  = useSrc0 | useBase
		br  = useSrc0 | useSrc1
	)
	return [numXops]uint8{
		xLi: i0, xMov: i1, xAdd: i2, xSub: i2, xMul: i2, xDiv: i2, xAnd: i2, xOr: i2, xXor: i2,
		xShl: i2, xShr: i2, xAddi: i1, xMuli: i1, xSlt: i2, xCvtFI: i1 | floatSrc0, xCopy: i1,
		xFLi: f0, xFMov: f1, xFAdd: f2, xFSub: f2, xFMul: f2, xFDiv: f2, xFNeg: f1, xFAbs: f1,
		xFSqrt: f1, xCvtIF: f0 | useSrc0, xFCopy: f1,
		xLd1: ld, xLd2: ld, xLd4: ld, xLd8: ld, xFLd8: fld,
		xSt1: st, xSt2: st, xSt4: st, xSt8: st, xFSt8: st | floatSrc0,
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

// ExecContext is the reusable execution state, borrowed per Run: the
// virtual register files, the origin ranges and granule sets of the alias
// check lists, and the pooled atomic region. A zero ExecContext is ready
// to use; it must not be shared between concurrently executing systems.
// No region entry depends on what an earlier entry left behind (Run
// initializes every vreg it reads, clears the granule sets, records every
// origin range before a list names it, and re-arms the atomic region), so
// an idle context may move between systems.
type ExecContext struct {
	vri []int64
	vrf []float64
	// ranges holds the access range of each origin op, by stream slot.
	ranges []span
	// accessed and stored are the entry's granule sets: one bit per
	// hashed 8-byte granule that an origin (accessed) or a store origin
	// (stored) accessed, so far.
	accessed, stored granules
	ar               atomic.Region
	// busy is set for the whole of a Run call and cleared once its
	// atomic region is finished (see Idle).
	busy bool
}

// span is an origin's access range [lo, hi).
type span struct{ lo, hi uint64 }

// granules is a 256-bit set of hashed 8-byte granules.
type granules [4]uint64

// granule hashes the 8-byte granule holding address a to a bit of a
// granules set (Fibonacci hashing: the granule number's top byte after a
// multiply by 2^64/φ).
func granule(a uint64) uint64 { return (a >> 3) * 0x9e3779b97f4a7c15 >> 56 }

// add sets the granules of [lo, hi), an access of at most 8 bytes, so at
// most two.
func (g *granules) add(lo, hi uint64) {
	a, b := granule(lo), granule(hi-1)
	g[a>>6] |= 1 << (a & 63)
	g[b>>6] |= 1 << (b & 63)
}

// has reports whether a granule of [lo, hi) is set.
func (g *granules) has(lo, hi uint64) bool {
	a, b := granule(lo), granule(hi-1)
	return (g[a>>6]>>(a&63)|g[b>>6]>>(b&63))&1 != 0
}

// Idle reports whether no region entry is in flight: every Run has
// returned, so its atomic region is finished. A context whose Run
// panicked stays busy and may not be reused.
func (ctx *ExecContext) Idle() bool { return !ctx.busy && ctx.ar.Finished() }

// Detach drops an idle context's references to the guest memory of its
// last entry, keeping its storage, so a pooled context does not keep a
// finished guest alive. It panics on a busy context.
func (ctx *ExecContext) Detach() {
	if ctx.busy {
		panic("vliw: Detach on a busy ExecContext")
	}
	ctx.ar.Detach()
}

// alias runs memory op op's alias work on [lo, hi): its check, unless the
// granule sets show that no origin of its list touched a granule of the
// access, and then, for an origin, the record of its range. pos is the
// op's list start in cr.lists. It returns the 1-based position in the
// list of the origin it conflicts with, or 0.
func (ctx *ExecContext) alias(cr *CompiledRegion, op *decOp, n, pos int, lo, hi uint64) int {
	if op.flags&flagList != 0 {
		set := &ctx.accessed
		if op.flags&flagStoreList != 0 {
			set = &ctx.stored
		}
		if set.has(lo, hi) {
			for j, o := range cr.lists[pos : pos+int(op.arMask)] {
				if r := &ctx.ranges[o]; lo < r.hi && r.lo < hi {
					return j + 1
				}
			}
		}
	}
	if op.flags&flagOrigin != 0 {
		ctx.ranges[n] = span{lo, hi}
		ctx.accessed.add(lo, hi)
		if op.xop.isStore() {
			ctx.stored.add(lo, hi)
		}
	}
	return 0
}

// abort rolls the entry back at stream slot n, after checked comparisons.
func (ctx *ExecContext) abort(cr *CompiledRegion, out Outcome, conf *aliashw.Conflict, n, checked int) ExecResult {
	buffered := ctx.ar.StoreCount()
	ctx.ar.Rollback()
	ctx.busy = false
	return ExecResult{Outcome: out, Conflict: conf, OpsExecuted: cr.scheduleIndex(n),
		ARHighWater: cr.arHighWater(n), StoresBuffered: buffered, Checked: checked}
}

// aliasAbort is abort on an alias exception: slot n's check conflicted
// with the j-th origin (1-based) of its list, which starts at pos. The
// conflict is copied to the heap here, on the exception path, never on
// the checking path.
func (ctx *ExecContext) aliasAbort(cr *CompiledRegion, n, pos, j int) ExecResult {
	conf := &aliashw.Conflict{Checker: int(cr.code[n].id), Origin: int(cr.code[cr.lists[pos+j-1]].id)}
	return ctx.abort(cr, AliasException, conf, n, pos+j)
}

// load is the slow path of a load the page fast path declined.
func load(mem *guest.Memory, addr uint64, size int) (uint64, bool) {
	v, err := mem.Load(addr, size)
	return v, err == nil
}

// Execute runs a compiled region against the guest state and memory on
// det's alias hardware. A region not yet baked is baked for det's
// hardware first (Bake); a region baked for other hardware panics. Only
// det.HW is read, and det is never changed: the region carries its
// hardware's behaviour. See Run.
func (ctx *ExecContext) Execute(cr *CompiledRegion, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	hw := det.HW()
	switch {
	case !cr.baked:
		cr.Bake(hw)
	case cr.hw != hw:
		panic(fmt.Sprintf("vliw: region baked for %+v executed on %s", cr.hw, det.Name()))
	}
	return ctx.Run(cr, st, mem)
}

// Run runs a baked region against the guest state and memory inside an
// atomic region. On anything but Commit the guest memory is rolled back
// to the region entry, and the guest registers were never written. The
// steady-state commit path performs zero heap allocations.
func (ctx *ExecContext) Run(cr *CompiledRegion, st *guest.State, mem *guest.Memory) ExecResult {
	if !cr.baked {
		panic("vliw: Run of a region that is not baked")
	}
	// One vreg past the region's is the zero vreg, the index of a memory
	// op with none folded into it.
	nv := cr.NumVRegs + 1
	if cap(ctx.vri) < nv {
		ctx.vri = make([]int64, nv)
		ctx.vrf = make([]float64, nv)
	}
	vri := ctx.vri[:nv]
	vrf := ctx.vrf[:nv]
	// Live-ins occupy fixed ranges (ir.Region: vregs [0, 2*NumRegs) are
	// the live-in guest registers, integer file first): vri[0:NumRegs]
	// holds the integer live-ins and vrf[NumRegs:2*NumRegs] the float
	// ones. Bulk-copy those and zero only the vregs read before they are
	// written, matching the fresh-slices semantics of the reference
	// executor without clearing words that are about to be overwritten.
	const nr = guest.NumRegs
	copy(vri[:nr], st.R[:])
	copy(vrf[nr:2*nr], st.F[:])
	for _, v := range cr.zeroInt {
		vri[v] = 0
	}
	for _, v := range cr.zeroFloat {
		vrf[v] = 0
	}

	code := cr.code
	if len(cr.lists) != 0 {
		if len(ctx.ranges) < len(code) {
			ctx.ranges = make([]span, len(code))
		}
		ctx.accessed, ctx.stored = granules{}, granules{}
	}
	pages := mem.Pages()
	// pos is the next checking op's list start in cr.lists: the
	// comparisons every list before it performed.
	pos := 0

	ctx.busy = true
	ctx.ar.Enter(mem)

	for n := range code {
		op := &code[n]
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

		// Loads: the alias work, then the page fast path, then
		// Memory.Load for anything it declines (and the fault).
		case xLd1:
			addr := op.addr(vri)
			if op.flags&aliasFlags != 0 {
				if j := ctx.alias(cr, op, n, pos, addr, addr+1); j != 0 {
					return ctx.aliasAbort(cr, n, pos, j)
				}
				pos += int(op.arMask)
			}
			v, ok := guest.PageLoad1(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 1); !ok {
					return ctx.abort(cr, Fault, nil, n, pos)
				}
			}
			vri[op.dst] = int64(v)
		case xLd2:
			addr := op.addr(vri)
			if op.flags&aliasFlags != 0 {
				if j := ctx.alias(cr, op, n, pos, addr, addr+2); j != 0 {
					return ctx.aliasAbort(cr, n, pos, j)
				}
				pos += int(op.arMask)
			}
			v, ok := guest.PageLoad2(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 2); !ok {
					return ctx.abort(cr, Fault, nil, n, pos)
				}
			}
			vri[op.dst] = int64(v)
		case xLd4:
			addr := op.addr(vri)
			if op.flags&aliasFlags != 0 {
				if j := ctx.alias(cr, op, n, pos, addr, addr+4); j != 0 {
					return ctx.aliasAbort(cr, n, pos, j)
				}
				pos += int(op.arMask)
			}
			v, ok := guest.PageLoad4(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 4); !ok {
					return ctx.abort(cr, Fault, nil, n, pos)
				}
			}
			vri[op.dst] = int64(v)
		case xLd8:
			addr := op.addr(vri)
			if op.flags&aliasFlags != 0 {
				if j := ctx.alias(cr, op, n, pos, addr, addr+8); j != 0 {
					return ctx.aliasAbort(cr, n, pos, j)
				}
				pos += int(op.arMask)
			}
			v, ok := guest.PageLoad8(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 8); !ok {
					return ctx.abort(cr, Fault, nil, n, pos)
				}
			}
			vri[op.dst] = int64(v)
		case xFLd8:
			addr := op.addr(vri)
			if op.flags&aliasFlags != 0 {
				if j := ctx.alias(cr, op, n, pos, addr, addr+8); j != 0 {
					return ctx.aliasAbort(cr, n, pos, j)
				}
				pos += int(op.arMask)
			}
			v, ok := guest.PageLoad8(pages, addr)
			if !ok {
				if v, ok = load(mem, addr, 8); !ok {
					return ctx.abort(cr, Fault, nil, n, pos)
				}
			}
			vrf[op.dst] = math.Float64frombits(v)

		// Stores: the alias work, then the atomic region's logged
		// write-through.
		case xSt1, xSt2, xSt4, xSt8:
			addr := op.addr(vri)
			size := int(op.memSize)
			if op.flags&aliasFlags != 0 {
				if j := ctx.alias(cr, op, n, pos, addr, addr+uint64(size)); j != 0 {
					return ctx.aliasAbort(cr, n, pos, j)
				}
				pos += int(op.arMask)
			}
			if err := ctx.ar.Store(addr, size, uint64(vri[op.src0])); err != nil {
				return ctx.abort(cr, Fault, nil, n, pos)
			}
		case xFSt8:
			addr := op.addr(vri)
			if op.flags&aliasFlags != 0 {
				if j := ctx.alias(cr, op, n, pos, addr, addr+8); j != 0 {
					return ctx.aliasAbort(cr, n, pos, j)
				}
				pos += int(op.arMask)
			}
			if err := ctx.ar.Store(addr, 8, math.Float64bits(vrf[op.src0])); err != nil {
				return ctx.abort(cr, Fault, nil, n, pos)
			}

		// Guards: the region stays on trace while the branch goes the way
		// it went when the region was formed.
		case xBeq:
			if (vri[op.src0] == vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(cr, GuardFail, nil, n, pos)
			}
		case xBne:
			if (vri[op.src0] != vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(cr, GuardFail, nil, n, pos)
			}
		case xBlt:
			if (vri[op.src0] < vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(cr, GuardFail, nil, n, pos)
			}
		case xBge:
			if (vri[op.src0] >= vri[op.src1]) != op.onTraceTaken() {
				return ctx.abort(cr, GuardFail, nil, n, pos)
			}

		default: // the bake drops rotates and AMOVs, and Validate rejects the rest
			panic(fmt.Sprintf("vliw: cannot execute fused opcode %v of slot %d", op.xop, n))
		}
	}

	// Commit: write the live-out virtual registers of the registers the
	// region may change back to the guest state and make the stores
	// permanent. Every list ran in full.
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
	ctx.busy = false
	return ExecResult{Outcome: Commit, NextBlock: cr.FinalTarget, OpsExecuted: cr.Ops(),
		ARHighWater: int(cr.arHW), StoresBuffered: buffered, Checked: len(cr.lists)}
}

// Execute is the context-free convenience entry point: it runs the region
// through a fresh ExecContext. Long-running callers (the dynopt runtime)
// borrow a pooled ExecContext per Run and call its Run method instead,
// so the vreg files, origin ranges and undo log are recycled across
// entries and across systems.
func Execute(cr *CompiledRegion, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	var ctx ExecContext
	return ctx.Execute(cr, st, mem, det)
}
