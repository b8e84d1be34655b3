package guest

import (
	"fmt"
	"sync"
)

// Block is a guest basic block: a straight-line sequence of instructions
// ending either in a control instruction or by falling through to the block
// with the next ID.
type Block struct {
	ID    int
	Insts []Inst
}

// Terminator returns the block's final instruction and whether it is a
// control instruction.
func (b *Block) Terminator() (Inst, bool) {
	if len(b.Insts) == 0 {
		return Inst{}, false
	}
	last := b.Insts[len(b.Insts)-1]
	return last, last.Op.IsControl()
}

// Successors returns the IDs of the blocks control may transfer to after b.
// The fall-through successor, when one exists, is listed first.
func (b *Block) Successors() []int {
	return b.AppendSuccessors(nil)
}

// AppendSuccessors appends b's successors, in Successors order, to dst and
// returns the result; with a dst of capacity 2 it never allocates.
func (b *Block) AppendSuccessors(dst []int) []int {
	term, ok := b.Terminator()
	if !ok {
		return append(dst, b.ID+1)
	}
	switch {
	case term.Op == Halt:
		return dst
	case term.Op == Jmp:
		return append(dst, term.Target)
	default: // conditional branch: fall through or taken
		return append(dst, b.ID+1, term.Target)
	}
}

// Program is a complete guest program: blocks indexed by ID, starting at
// Entry.
//
// A program is immutable once built: nothing writes Blocks, Entry or any
// block's Insts after the Builder or DecodeProgram returns it, so one
// *Program is shared by every System, fleet tenant and figure cell that
// runs it. A Program must not be copied by value (it holds sync.Onces).
type Program struct {
	Blocks []*Block
	Entry  int

	// decoded and traces hold what Decoded and Traces derive from the
	// program on first use; they live and die with it.
	decoded, traces slot
}

// slot is one value derived from a program, made on first use.
type slot struct {
	once sync.Once
	v    any
}

func (s *slot) get(p *Program, derive func(*Program) any) any {
	s.once.Do(func() { s.v = derive(p) })
	return s.v
}

// Decoded returns decode(p), calling decode only on the first call: every
// later call, from any goroutine, returns that first result whatever
// function it passes. The interpreter keeps its pre-decoded code here, so
// every interpreter over one program shares one decode. The program must
// not be modified after the first call.
func (p *Program) Decoded(decode func(*Program) any) any {
	return p.decoded.get(p, decode)
}

// Traces returns newTable(p), calling newTable only on the first call,
// like Decoded. Region formation keeps its trace table here, so every
// System over one program shares the superblocks formed from it. Unlike
// the decode, the table grows after it is made: its owner synchronizes
// it.
func (p *Program) Traces(newTable func(*Program) any) any {
	return p.traces.get(p, newTable)
}

// Block returns the block with the given ID, or nil when out of range.
func (p *Program) Block(id int) *Block {
	if id < 0 || id >= len(p.Blocks) {
		return nil
	}
	return p.Blocks[id]
}

// NumInsts returns the static instruction count of the program.
func (p *Program) NumInsts() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Validate checks structural well-formedness: block IDs match their indices,
// control instructions appear only in terminator position, branch targets
// are in range, interior blocks that fall through have a following block,
// and register numbers are within the files.
func (p *Program) Validate() error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("guest: program has no blocks")
	}
	if p.Entry < 0 || p.Entry >= len(p.Blocks) {
		return fmt.Errorf("guest: entry block %d out of range [0,%d)", p.Entry, len(p.Blocks))
	}
	for i, b := range p.Blocks {
		if b == nil {
			return fmt.Errorf("guest: block %d is nil", i)
		}
		if b.ID != i {
			return fmt.Errorf("guest: block at index %d has ID %d", i, b.ID)
		}
		for j, in := range b.Insts {
			if in.Op >= numOpcodes {
				return fmt.Errorf("guest: B%d[%d]: invalid opcode %d", i, j, in.Op)
			}
			if in.Op.IsControl() && j != len(b.Insts)-1 {
				return fmt.Errorf("guest: B%d[%d]: control instruction %s not at block end", i, j, in.Op)
			}
			if (in.Op.IsBranch() || in.Op == Jmp) && (in.Target < 0 || in.Target >= len(p.Blocks)) {
				return fmt.Errorf("guest: B%d[%d]: branch target B%d out of range", i, j, in.Target)
			}
			if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
				return fmt.Errorf("guest: B%d[%d]: register out of range in %s", i, j, in)
			}
		}
		if _, ok := b.Terminator(); !ok && i == len(p.Blocks)-1 {
			return fmt.Errorf("guest: final block B%d falls off the end of the program", i)
		}
	}
	return nil
}

// String renders the whole program as assembly-like text.
func (p *Program) String() string {
	var out []byte
	for _, b := range p.Blocks {
		out = append(out, fmt.Sprintf("B%d:\n", b.ID)...)
		for _, in := range b.Insts {
			out = append(out, '\t')
			out = append(out, in.String()...)
			out = append(out, '\n')
		}
	}
	return string(out)
}
