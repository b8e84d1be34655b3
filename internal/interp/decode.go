package interp

import (
	"math"

	"smarq/internal/guest"
)

// dOp is a decoded opcode. The first block of values mirrors guest.Opcode
// one-to-one (same numeric order, so plain instructions decode with a cast);
// after dHalt come the fused pairs and the invalid-opcode sentinel. The
// interpreter's inner switch is dense over these values, which the compiler
// lowers to a jump table.
type dOp uint8

const (
	dNop dOp = iota
	dLi
	dMov
	dAdd
	dSub
	dMul
	dDiv
	dAnd
	dOr
	dXor
	dShl
	dShr
	dAddi
	dMuli
	dSlt
	dFLi
	dFMov
	dFAdd
	dFSub
	dFMul
	dFDiv
	dFNeg
	dFAbs
	dFSqrt
	dCvtIF
	dCvtFI
	dLd1
	dLd2
	dLd4
	dLd8
	dSt1
	dSt2
	dSt4
	dSt8
	dFLd8
	dFSt8
	dBeq
	dBne
	dBlt
	dBge
	dJmp
	dHalt

	// Fused pairs: two guest instructions executed as one decoded op. Both
	// architectural writes still happen and both instructions retire, so
	// fusion is invisible to the profile, DynInsts, and the differential
	// tests.
	dSltBeq   // slt rd,rs1,rs2 ; beq fd,fs -> target
	dSltBne   // slt rd,rs1,rs2 ; bne fd,fs -> target
	dAddiLd1  // addi rd,rs1,imm ; ld1 fd,[rd+imm2]
	dAddiLd2  // addi rd,rs1,imm ; ld2 fd,[rd+imm2]
	dAddiLd4  // addi rd,rs1,imm ; ld4 fd,[rd+imm2]
	dAddiLd8  // addi rd,rs1,imm ; ld8 fd,[rd+imm2]
	dAddiFLd8 // addi rd,rs1,imm ; fld8 fd,[rd+imm2]
	dMuliAdd  // muli rd,rs1,imm ; add fd,rs2,rd

	// Fused triples: the scaled-index address pattern (muli ; add ;
	// 8-byte memory access) every workload emits through idx8. All three
	// architectural writes happen in original order and all three
	// instructions retire.
	dMuliAddLd8  // muli rd,rs1,imm ; add fd,rs2,rd ; ld8 fs,[fd+imm2]
	dMuliAddFLd8 // muli rd,rs1,imm ; add fd,rs2,rd ; fld8 fs,[fd+imm2]
	dMuliAddSt8  // muli rd,rs1,imm ; add fd,rs2,rd ; st8 [fd+imm2],fs
	dMuliAddFSt8 // muli rd,rs1,imm ; add fd,rs2,rd ; fst8 [fd+imm2],fs

	// dBad marks an opcode guest.Exec cannot execute. Hitting it falls to
	// the cold path, which reproduces the reference error exactly.
	dBad
)

// regMask masks a decoded register operand for bounds-check-free register
// file indexing (guest.NumRegs is a power of two). Decoding routes any
// instruction with an operand >= NumRegs to dBad, so for every executable
// decoded instruction the mask is a semantic no-op — it exists purely so
// the compiler can prove r[in.rd&regMask] is in range.
const regMask = guest.NumRegs - 1

// regsOK reports whether every register operand is within the register
// file. guest.Program.Validate enforces this; hand-built programs that
// violate it fall to the cold path, where guest.Exec produces the same
// out-of-range panic the reference engine would.
func regsOK(in guest.Inst) bool {
	return in.Rd < guest.NumRegs && in.Rs1 < guest.NumRegs && in.Rs2 < guest.NumRegs
}

// decInst is one pre-decoded instruction: a 32-byte value struct with the
// access size resolved into the opcode, the float immediate pre-converted to
// bits, and the original instruction index kept only for cold-path error
// attribution.
type decInst struct {
	op     dOp
	rd     uint8
	rs1    uint8
	rs2    uint8
	fd     uint8 // fused pair: destination of the second instruction
	fs     uint8 // fused compare+branch: second branch source register
	slot   uint8 // Profile successor cell a taken branch records into
	_      uint8
	gi     int32 // index of the (faultable) guest instruction within its block
	target int32 // branch/jmp destination block ID
	imm    int64 // primary immediate; FImm bits for dFLi
	imm2   int64 // fused pair: the second instruction's immediate
}

// decBlock is the decoded form of one basic block: a slice of the flat code
// array plus the static fallthrough successor.
type decBlock struct {
	start, end int32
	fall       int32 // id+1; out of range for the final block, like the reference
}

// decProgram is the decode cache for a whole program: every block decoded
// once, back to back, in one flat value-struct array. It is shared by every
// interpreter over the program and never written after decodeProgram.
type decProgram struct {
	code   []decInst
	blocks []decBlock
}

// Successor cells in Profile. Decoding assigns slotFall to the fallthrough
// edge and to unconditional jumps (a valid block's only exit), and slotTaken
// to taken conditional branches, so edge recording at block end is a single
// indexed store.
const (
	slotFall  = 0
	slotTaken = 1
)

// decodeShared is the decoder New hands to guest.Program.Decoded: the
// program keeps the result, so a program is decoded once per process and
// its decoded code is read-only from then on.
func decodeShared(prog *guest.Program) any {
	d := decodeProgram(prog)
	return &d
}

// decodeProgram decodes every block of prog into a flat decInst array,
// fusing adjacent pairs where the second instruction consumes the first
// instruction's result (compare+branch, addi+load address arithmetic).
func decodeProgram(prog *guest.Program) decProgram {
	n := 0
	for i := range prog.Blocks {
		n += len(prog.Blocks[i].Insts)
	}
	d := decProgram{
		code:   make([]decInst, 0, n),
		blocks: make([]decBlock, len(prog.Blocks)),
	}
	for id := range prog.Blocks {
		insts := prog.Blocks[id].Insts
		start := int32(len(d.code))
		for i := 0; i < len(insts); i++ {
			if i+2 < len(insts) {
				if f, ok := fuseTriple(insts[i], insts[i+1], insts[i+2], int32(i)); ok {
					d.code = append(d.code, f)
					i += 2
					continue
				}
			}
			if i+1 < len(insts) {
				if f, ok := fusePair(insts[i], insts[i+1], int32(i)); ok {
					d.code = append(d.code, f)
					i++
					continue
				}
			}
			d.code = append(d.code, decodeOne(insts[i], int32(i)))
		}
		d.blocks[id] = decBlock{start: start, end: int32(len(d.code)), fall: int32(id + 1)}
	}
	return d
}

// decodeOne decodes a single guest instruction.
func decodeOne(in guest.Inst, gi int32) decInst {
	di := decInst{
		rd:     uint8(in.Rd),
		rs1:    uint8(in.Rs1),
		rs2:    uint8(in.Rs2),
		gi:     gi,
		target: int32(in.Target),
		imm:    in.Imm,
	}
	switch {
	case in.Op > guest.Halt || !regsOK(in):
		di.op = dBad
	case in.Op == guest.FLi:
		di.op = dFLi
		di.imm = int64(math.Float64bits(in.FImm))
	default:
		di.op = dOp(in.Op) // same numeric order by construction
		if in.Op.IsBranch() {
			di.slot = slotTaken
		}
	}
	return di
}

// fusePair returns the fused decoding of (a, b) when the pair matches a
// fusion rule, with gi attributing any fault to the correct original
// instruction. Fusion never changes architectural effects: the first
// instruction's destination is still written before the second executes, so
// destination aliasing (e.g. the load overwriting the addi result) behaves
// exactly as in the reference.
func fusePair(a, b guest.Inst, i int32) (decInst, bool) {
	if !regsOK(a) || !regsOK(b) {
		return decInst{}, false // each half decodes alone, to dBad
	}
	switch {
	case a.Op == guest.Slt && (b.Op == guest.Beq || b.Op == guest.Bne) &&
		(b.Rs1 == a.Rd || b.Rs2 == a.Rd):
		op := dSltBeq
		if b.Op == guest.Bne {
			op = dSltBne
		}
		return decInst{
			op: op, rd: uint8(a.Rd), rs1: uint8(a.Rs1), rs2: uint8(a.Rs2),
			fd: uint8(b.Rs1), fs: uint8(b.Rs2),
			slot: slotTaken, gi: i, target: int32(b.Target),
		}, true
	case a.Op == guest.Muli && b.Op == guest.Add &&
		(b.Rs1 == a.Rd || b.Rs2 == a.Rd):
		// The scaled term is read back after the muli result is written,
		// so add operands that alias the muli destination see the fresh
		// value exactly as in the reference.
		other := b.Rs1
		if b.Rs1 == a.Rd {
			other = b.Rs2
		}
		return decInst{
			op: dMuliAdd, rd: uint8(a.Rd), rs1: uint8(a.Rs1), rs2: uint8(other),
			fd: uint8(b.Rd), gi: i, imm: a.Imm,
		}, true
	case a.Op == guest.Addi && b.Op.IsLoad() && b.Rs1 == a.Rd:
		var op dOp
		switch b.Op {
		case guest.Ld1:
			op = dAddiLd1
		case guest.Ld2:
			op = dAddiLd2
		case guest.Ld4:
			op = dAddiLd4
		case guest.Ld8:
			op = dAddiLd8
		case guest.FLd8:
			op = dAddiFLd8
		}
		return decInst{
			op: op, rd: uint8(a.Rd), rs1: uint8(a.Rs1), fd: uint8(b.Rd),
			gi: i + 1, imm: a.Imm, imm2: b.Imm,
		}, true
	}
	return decInst{}, false
}

// fuseTriple returns the fused decoding of (a, b, c) when the three match
// the scaled-index address pattern: muli computing a byte offset, add
// forming the address, and an 8-byte access through it. Fault attribution
// points at the memory access (the only faultable third); the first two
// instructions have retired by then.
func fuseTriple(a, b, c guest.Inst, i int32) (decInst, bool) {
	if !regsOK(a) || !regsOK(b) || !regsOK(c) {
		return decInst{}, false
	}
	if a.Op != guest.Muli || b.Op != guest.Add ||
		(b.Rs1 != a.Rd && b.Rs2 != a.Rd) || c.Rs1 != b.Rd {
		return decInst{}, false
	}
	var op dOp
	switch c.Op {
	case guest.Ld8:
		op = dMuliAddLd8
	case guest.FLd8:
		op = dMuliAddFLd8
	case guest.St8:
		op = dMuliAddSt8
	case guest.FSt8:
		op = dMuliAddFSt8
	default:
		return decInst{}, false
	}
	other := b.Rs1
	if b.Rs1 == a.Rd {
		other = b.Rs2
	}
	return decInst{
		op: op, rd: uint8(a.Rd), rs1: uint8(a.Rs1), rs2: uint8(other),
		fd: uint8(b.Rd), fs: uint8(c.Rd),
		gi: i + 2, imm: a.Imm, imm2: c.Imm,
	}, true
}
