package guest

import "fmt"

// Builder assembles guest programs incrementally. Blocks are created with
// NewBlock (in ID order) and instructions are appended to the current block
// with the emit helpers. Forward branch targets can be reserved with
// Reserve and filled in later with At.
//
//	b := guest.NewBuilder()
//	loop := b.NewBlock()
//	b.Ld8(1, 2, 0)        // r1 = [r2+0]
//	b.Addi(1, 1, 1)       // r1 = r1 + 1
//	b.St8(2, 0, 1)        // [r2+0] = r1
//	b.Blt(3, 4, loop)     // if r3 < r4 goto loop
//	exit := b.NewBlock()
//	b.Halt()
//	_ = exit
//	prog, err := b.Program()
type Builder struct {
	blocks []*Block
	cur    *Block
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// NewBlock appends a new empty block, makes it current, and returns its ID.
func (b *Builder) NewBlock() int {
	id := len(b.blocks)
	blk := &Block{ID: id}
	b.blocks = append(b.blocks, blk)
	b.cur = blk
	return id
}

// Reserve appends n empty blocks without making them current and returns the
// ID of the first. Used for forward branch targets.
func (b *Builder) Reserve(n int) int {
	first := len(b.blocks)
	for i := 0; i < n; i++ {
		b.blocks = append(b.blocks, &Block{ID: first + i})
	}
	return first
}

// At switches the current block to the block with the given ID.
func (b *Builder) At(id int) {
	if id < 0 || id >= len(b.blocks) {
		panic(fmt.Sprintf("guest: Builder.At(%d): no such block", id))
	}
	b.cur = b.blocks[id]
}

// Emit appends a raw instruction to the current block.
func (b *Builder) Emit(in Inst) {
	if b.cur == nil {
		b.NewBlock()
	}
	b.cur.Insts = append(b.cur.Insts, in)
}

// Program validates and returns the assembled program. The entry point is
// block 0. The program shares its blocks with the builder, so emit nothing
// more once it is built: programs are immutable after build.
func (b *Builder) Program() (*Program, error) {
	p := &Program{Blocks: b.blocks}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustProgram is Program but panics on validation failure. Intended for
// statically-known workload generators and tests.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

// Integer ALU helpers.

func (b *Builder) Nop()                 { b.Emit(Inst{Op: Nop}) }
func (b *Builder) Li(rd Reg, imm int64) { b.Emit(Inst{Op: Li, Rd: rd, Imm: imm}) }
func (b *Builder) Mov(rd, rs1 Reg)      { b.Emit(Inst{Op: Mov, Rd: rd, Rs1: rs1}) }
func (b *Builder) Add(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Add, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Sub(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Sub, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Mul(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Mul, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Div(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Div, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) And(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: And, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Or(rd, rs1, rs2 Reg)  { b.Emit(Inst{Op: Or, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Xor(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Xor, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Shl(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Shl, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Shr(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Shr, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Slt(rd, rs1, rs2 Reg) { b.Emit(Inst{Op: Slt, Rd: rd, Rs1: rs1, Rs2: rs2}) }
func (b *Builder) Addi(rd, rs1 Reg, imm int64) {
	b.Emit(Inst{Op: Addi, Rd: rd, Rs1: rs1, Imm: imm})
}
func (b *Builder) Muli(rd, rs1 Reg, imm int64) {
	b.Emit(Inst{Op: Muli, Rd: rd, Rs1: rs1, Imm: imm})
}

// Floating-point helpers.

func (b *Builder) FLi(fd Reg, v float64) { b.Emit(Inst{Op: FLi, Rd: fd, FImm: v}) }
func (b *Builder) FMov(fd, fs Reg)       { b.Emit(Inst{Op: FMov, Rd: fd, Rs1: fs}) }
func (b *Builder) FAdd(fd, fs1, fs2 Reg) { b.Emit(Inst{Op: FAdd, Rd: fd, Rs1: fs1, Rs2: fs2}) }
func (b *Builder) FSub(fd, fs1, fs2 Reg) { b.Emit(Inst{Op: FSub, Rd: fd, Rs1: fs1, Rs2: fs2}) }
func (b *Builder) FMul(fd, fs1, fs2 Reg) { b.Emit(Inst{Op: FMul, Rd: fd, Rs1: fs1, Rs2: fs2}) }
func (b *Builder) FDiv(fd, fs1, fs2 Reg) { b.Emit(Inst{Op: FDiv, Rd: fd, Rs1: fs1, Rs2: fs2}) }
func (b *Builder) FNeg(fd, fs Reg)       { b.Emit(Inst{Op: FNeg, Rd: fd, Rs1: fs}) }
func (b *Builder) FAbs(fd, fs Reg)       { b.Emit(Inst{Op: FAbs, Rd: fd, Rs1: fs}) }
func (b *Builder) FSqrt(fd, fs Reg)      { b.Emit(Inst{Op: FSqrt, Rd: fd, Rs1: fs}) }
func (b *Builder) CvtIF(fd, rs Reg)      { b.Emit(Inst{Op: CvtIF, Rd: fd, Rs1: rs}) }
func (b *Builder) CvtFI(rd, fs Reg)      { b.Emit(Inst{Op: CvtFI, Rd: rd, Rs1: fs}) }

// Memory helpers. The effective address is base register + displacement.

func (b *Builder) Ld1(rd, base Reg, off int64) { b.Emit(Inst{Op: Ld1, Rd: rd, Rs1: base, Imm: off}) }
func (b *Builder) Ld2(rd, base Reg, off int64) { b.Emit(Inst{Op: Ld2, Rd: rd, Rs1: base, Imm: off}) }
func (b *Builder) Ld4(rd, base Reg, off int64) { b.Emit(Inst{Op: Ld4, Rd: rd, Rs1: base, Imm: off}) }
func (b *Builder) Ld8(rd, base Reg, off int64) { b.Emit(Inst{Op: Ld8, Rd: rd, Rs1: base, Imm: off}) }
func (b *Builder) St1(base Reg, off int64, rv Reg) {
	b.Emit(Inst{Op: St1, Rd: rv, Rs1: base, Imm: off})
}
func (b *Builder) St2(base Reg, off int64, rv Reg) {
	b.Emit(Inst{Op: St2, Rd: rv, Rs1: base, Imm: off})
}
func (b *Builder) St4(base Reg, off int64, rv Reg) {
	b.Emit(Inst{Op: St4, Rd: rv, Rs1: base, Imm: off})
}
func (b *Builder) St8(base Reg, off int64, rv Reg) {
	b.Emit(Inst{Op: St8, Rd: rv, Rs1: base, Imm: off})
}
func (b *Builder) FLd8(fd, base Reg, off int64) {
	b.Emit(Inst{Op: FLd8, Rd: fd, Rs1: base, Imm: off})
}
func (b *Builder) FSt8(base Reg, off int64, fv Reg) {
	b.Emit(Inst{Op: FSt8, Rd: fv, Rs1: base, Imm: off})
}

// Control helpers.

func (b *Builder) Beq(rs1, rs2 Reg, target int) {
	b.Emit(Inst{Op: Beq, Rs1: rs1, Rs2: rs2, Target: target})
}
func (b *Builder) Bne(rs1, rs2 Reg, target int) {
	b.Emit(Inst{Op: Bne, Rs1: rs1, Rs2: rs2, Target: target})
}
func (b *Builder) Blt(rs1, rs2 Reg, target int) {
	b.Emit(Inst{Op: Blt, Rs1: rs1, Rs2: rs2, Target: target})
}
func (b *Builder) Bge(rs1, rs2 Reg, target int) {
	b.Emit(Inst{Op: Bge, Rs1: rs1, Rs2: rs2, Target: target})
}
func (b *Builder) Jmp(target int) { b.Emit(Inst{Op: Jmp, Target: target}) }
func (b *Builder) Halt()          { b.Emit(Inst{Op: Halt}) }
