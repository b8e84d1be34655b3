// Package interp interprets guest programs and collects the execution
// profile the dynamic optimization system uses to find hot code.
//
// In the paper's framework (Figure 1) guest code "is first executed through
// interpretation" while the system "profiles the execution for hot basic
// blocks"; when a block's execution count crosses the hotness threshold the
// optimizer forms a superblock region along the hot path. The interpreter
// therefore counts block entries and control-flow edges (the edge counts
// steer region formation toward the most likely successor).
//
// Since interpretation is the floor under every warmup and every fallback
// from translated code, the package ships two engines over the same
// architectural state:
//
//   - the pre-decoded engine (the default): each block is decoded once into
//     a flat []decInst value-struct array — access sizes resolved, float
//     immediates pre-converted, common pairs fused — and executed by an
//     index-threaded loop that performs no allocation and touches no
//     interface or fmt machinery;
//   - the reference engine (Ref=true): the original per-instruction
//     guest.Exec switch, kept as the single source of truth for guest
//     semantics.
//
// TestInterpDecodedMatchesReference and FuzzInterpDecoded prove the two
// engines bit-identical (registers, memory, profile, retirement counts,
// errors).
package interp

import (
	"fmt"
	"math"

	"smarq/internal/guest"
)

// noSucc marks an unused successor cell.
const noSucc = -1

// succCell is one observed successor edge of a block: the successor's block
// ID and the number of times the edge was taken.
type succCell struct {
	id int32
	n  uint64
}

// Profile accumulates execution counts during interpretation.
//
// Block IDs are dense small integers and a structurally valid program
// (guest.Program.Validate) gives every block at most two static successors —
// the fallthrough block and one branch target — so edges live in a dense
// per-block table of two successor cells rather than a map keyed by edge.
// Programs that put control flow mid-block (rejected by Validate) may merge
// counts of distinct mid-block targets into one cell; the valid-program
// contract is what the rest of the system relies on.
type Profile struct {
	BlockCounts []uint64 // indexed by block ID
	succs       [][2]succCell
}

// NewProfile returns an empty profile for a program with numBlocks blocks.
func NewProfile(numBlocks int) *Profile {
	p := &Profile{
		BlockCounts: make([]uint64, numBlocks),
		succs:       make([][2]succCell, numBlocks),
	}
	for i := range p.succs {
		p.succs[i][0].id = noSucc
		p.succs[i][1].id = noSucc
	}
	return p
}

// Reset rewinds the profile to its initial empty state without reallocating.
func (p *Profile) Reset() {
	for i := range p.BlockCounts {
		p.BlockCounts[i] = 0
	}
	for i := range p.succs {
		p.succs[i][0] = succCell{id: noSucc}
		p.succs[i][1] = succCell{id: noSucc}
	}
}

// Hot reports whether block id has reached the hotness threshold.
func (p *Profile) Hot(id int, threshold uint64) bool {
	return id >= 0 && id < len(p.BlockCounts) && p.BlockCounts[id] >= threshold
}

// EdgeCount returns the number of times the from→to control transfer was
// observed. Cells are searched (and summed) rather than indexed because the
// two engines may place the same successor in different cells.
func (p *Profile) EdgeCount(from, to int) uint64 {
	if from < 0 || from >= len(p.succs) {
		return 0
	}
	var n uint64
	for i := range p.succs[from] {
		if c := &p.succs[from][i]; int(c.id) == to {
			n += c.n
		}
	}
	return n
}

// AddEdges records n observations of the from→to edge, claiming a free
// successor cell if the edge is new. Tests and tools use it to seed
// profiles; the interpreter records edges directly.
func (p *Profile) AddEdges(from, to int, n uint64) {
	cells := &p.succs[from]
	for i := range cells {
		if int(cells[i].id) == to {
			cells[i].n += n
			return
		}
	}
	for i := range cells {
		if cells[i].id == noSucc {
			cells[i] = succCell{id: int32(to), n: n}
			return
		}
	}
	// Third distinct successor: only reachable for structurally invalid
	// programs. Merge into the taken-branch cell.
	cells[slotTaken].id = int32(to)
	cells[slotTaken].n += n
}

// HottestSuccessor returns the successor of block id with the highest edge
// count among candidates, and that count. It returns -1 when no candidate
// has been observed. Candidates are scanned in order and ties keep the
// earlier candidate, exactly like the original map-based profile, so region
// formation is unchanged.
func (p *Profile) HottestSuccessor(id int, candidates []int) (int, uint64) {
	best, bestCount := -1, uint64(0)
	for _, c := range candidates {
		if n := p.EdgeCount(id, c); n > bestCount {
			best, bestCount = c, n
		}
	}
	return best, bestCount
}

// Interpreter executes a guest program one basic block at a time, updating
// the profile as it goes.
type Interpreter struct {
	Prog *guest.Program
	St   *guest.State
	Mem  *guest.Memory
	Prof *Profile

	// DynInsts counts guest instructions retired by the interpreter. It
	// is the only retirement count the package keeps: dynopt folds it into
	// Stats.InterpretedInsts, which its interp_insts metric publishes.
	DynInsts uint64

	// Ref routes RunBlock through the per-instruction guest.Exec reference
	// engine instead of the pre-decoded one. guest.Exec stays the single
	// source of truth for guest semantics; the differential tests compare
	// the decoded engine against this mode.
	Ref bool

	dec decProgram
}

// New returns an interpreter over prog with the given architectural state.
// The program is decoded once here; New is the only constructor.
func New(prog *guest.Program, st *guest.State, mem *guest.Memory) *Interpreter {
	return &Interpreter{
		Prog: prog,
		St:   st,
		Mem:  mem,
		Prof: NewProfile(len(prog.Blocks)),
		dec:  decodeProgram(prog),
	}
}

// Reset rewinds the profile and retirement count to a fresh interpreter
// without re-decoding the program. Architectural state (St, Mem) is owned
// by the caller and is not touched.
func (it *Interpreter) Reset() {
	it.DynInsts = 0
	it.Prof.Reset()
}

// HaltID is the pseudo block ID RunBlock returns when the guest halts.
const HaltID = -1

// RunBlock interprets block id to completion and returns the ID of the next
// block, or HaltID when the program halted. The block's entry and the
// outgoing edge are recorded in the profile.
func (it *Interpreter) RunBlock(id int) (int, error) {
	if it.Ref {
		return it.runBlockRef(id)
	}
	if uint(id) >= uint(len(it.dec.blocks)) {
		return HaltID, fmt.Errorf("interp: no block %d", id)
	}
	it.Prof.BlockCounts[id]++
	return it.runFrom(id, 0, 0)
}

// runFrom executes block id's decoded ops from index start on, with
// retired of the block's guest instructions already retired.
func (it *Interpreter) runFrom(id, start int, retired uint64) (int, error) {
	d := &it.dec
	b := d.blocks[id]
	code := d.code[b.start:b.end:b.end]
	st := it.St
	r := &st.R
	f := &st.F
	// Stores fill the page table's nil entries in place, so the hoisted
	// table stays current for the whole block.
	pages := it.Mem.Pages()
	next := int(b.fall) // fallthrough unless a control instruction says otherwise
	slot := uint8(slotFall)
	for i := start; i < len(code); i++ {
		in := &code[i]
		switch in.op {
		case dNop:
		case dLi:
			r[in.rd&regMask] = in.imm
		case dMov:
			r[in.rd&regMask] = r[in.rs1&regMask]
		case dAdd:
			r[in.rd&regMask] = r[in.rs1&regMask] + r[in.rs2&regMask]
		case dSub:
			r[in.rd&regMask] = r[in.rs1&regMask] - r[in.rs2&regMask]
		case dMul:
			r[in.rd&regMask] = r[in.rs1&regMask] * r[in.rs2&regMask]
		case dDiv:
			if r[in.rs2&regMask] == 0 {
				r[in.rd&regMask] = 0
			} else {
				r[in.rd&regMask] = r[in.rs1&regMask] / r[in.rs2&regMask]
			}
		case dAnd:
			r[in.rd&regMask] = r[in.rs1&regMask] & r[in.rs2&regMask]
		case dOr:
			r[in.rd&regMask] = r[in.rs1&regMask] | r[in.rs2&regMask]
		case dXor:
			r[in.rd&regMask] = r[in.rs1&regMask] ^ r[in.rs2&regMask]
		case dShl:
			r[in.rd&regMask] = r[in.rs1&regMask] << (uint64(r[in.rs2&regMask]) & 63)
		case dShr:
			r[in.rd&regMask] = r[in.rs1&regMask] >> (uint64(r[in.rs2&regMask]) & 63)
		case dAddi:
			r[in.rd&regMask] = r[in.rs1&regMask] + in.imm
		case dMuli:
			r[in.rd&regMask] = r[in.rs1&regMask] * in.imm
		case dSlt:
			v := int64(0)
			if r[in.rs1&regMask] < r[in.rs2&regMask] {
				v = 1
			}
			r[in.rd&regMask] = v
		case dFLi:
			f[in.rd&regMask] = math.Float64frombits(uint64(in.imm))
		case dFMov:
			f[in.rd&regMask] = f[in.rs1&regMask]
		case dFAdd:
			f[in.rd&regMask] = f[in.rs1&regMask] + f[in.rs2&regMask]
		case dFSub:
			f[in.rd&regMask] = f[in.rs1&regMask] - f[in.rs2&regMask]
		case dFMul:
			f[in.rd&regMask] = f[in.rs1&regMask] * f[in.rs2&regMask]
		case dFDiv:
			f[in.rd&regMask] = f[in.rs1&regMask] / f[in.rs2&regMask]
		case dFNeg:
			f[in.rd&regMask] = -f[in.rs1&regMask]
		case dFAbs:
			f[in.rd&regMask] = math.Abs(f[in.rs1&regMask])
		case dFSqrt:
			f[in.rd&regMask] = math.Sqrt(f[in.rs1&regMask])
		case dCvtIF:
			f[in.rd&regMask] = float64(r[in.rs1&regMask])
		case dCvtFI:
			r[in.rd&regMask] = int64(f[in.rs1&regMask])
		case dLd1:
			v, ok := guest.PageLoad1(pages, uint64(r[in.rs1&regMask]+in.imm))
			if !ok {
				return it.slowAccess(id, i, retired)
			}
			r[in.rd&regMask] = int64(v)
		case dLd2:
			v, ok := guest.PageLoad2(pages, uint64(r[in.rs1&regMask]+in.imm))
			if !ok {
				return it.slowAccess(id, i, retired)
			}
			r[in.rd&regMask] = int64(v)
		case dLd4:
			v, ok := guest.PageLoad4(pages, uint64(r[in.rs1&regMask]+in.imm))
			if !ok {
				return it.slowAccess(id, i, retired)
			}
			r[in.rd&regMask] = int64(v)
		case dLd8:
			v, ok := guest.PageLoad8(pages, uint64(r[in.rs1&regMask]+in.imm))
			if !ok {
				return it.slowAccess(id, i, retired)
			}
			r[in.rd&regMask] = int64(v)
		case dSt1:
			if !guest.PageStore1(pages, uint64(r[in.rs1&regMask]+in.imm), uint64(r[in.rd&regMask])) {
				return it.slowAccess(id, i, retired)
			}
		case dSt2:
			if !guest.PageStore2(pages, uint64(r[in.rs1&regMask]+in.imm), uint64(r[in.rd&regMask])) {
				return it.slowAccess(id, i, retired)
			}
		case dSt4:
			if !guest.PageStore4(pages, uint64(r[in.rs1&regMask]+in.imm), uint64(r[in.rd&regMask])) {
				return it.slowAccess(id, i, retired)
			}
		case dSt8:
			if !guest.PageStore8(pages, uint64(r[in.rs1&regMask]+in.imm), uint64(r[in.rd&regMask])) {
				return it.slowAccess(id, i, retired)
			}
		case dFLd8:
			v, ok := guest.PageLoad8(pages, uint64(r[in.rs1&regMask]+in.imm))
			if !ok {
				return it.slowAccess(id, i, retired)
			}
			f[in.rd&regMask] = math.Float64frombits(v)
		case dFSt8:
			if !guest.PageStore8(pages, uint64(r[in.rs1&regMask]+in.imm), math.Float64bits(f[in.rd&regMask])) {
				return it.slowAccess(id, i, retired)
			}
		case dBeq:
			if r[in.rs1&regMask] == r[in.rs2&regMask] {
				next, slot = int(in.target), in.slot
			}
		case dBne:
			if r[in.rs1&regMask] != r[in.rs2&regMask] {
				next, slot = int(in.target), in.slot
			}
		case dBlt:
			if r[in.rs1&regMask] < r[in.rs2&regMask] {
				next, slot = int(in.target), in.slot
			}
		case dBge:
			if r[in.rs1&regMask] >= r[in.rs2&regMask] {
				next, slot = int(in.target), in.slot
			}
		case dJmp:
			next, slot = int(in.target), in.slot
		case dHalt:
			retired++
			it.DynInsts += retired
			return HaltID, nil
		case dSltBeq:
			v := int64(0)
			if r[in.rs1&regMask] < r[in.rs2&regMask] {
				v = 1
			}
			r[in.rd&regMask] = v
			retired++
			if r[in.fd&regMask] == r[in.fs&regMask] {
				next, slot = int(in.target), in.slot
			}
		case dSltBne:
			v := int64(0)
			if r[in.rs1&regMask] < r[in.rs2&regMask] {
				v = 1
			}
			r[in.rd&regMask] = v
			retired++
			if r[in.fd&regMask] != r[in.fs&regMask] {
				next, slot = int(in.target), in.slot
			}
		case dAddiLd1:
			a := r[in.rs1&regMask] + in.imm
			r[in.rd&regMask] = a
			v, ok := guest.PageLoad1(pages, uint64(a+in.imm2))
			if !ok {
				return it.slowAccess(id, i, retired+1)
			}
			r[in.fd&regMask] = int64(v)
			retired++
		case dAddiLd2:
			a := r[in.rs1&regMask] + in.imm
			r[in.rd&regMask] = a
			v, ok := guest.PageLoad2(pages, uint64(a+in.imm2))
			if !ok {
				return it.slowAccess(id, i, retired+1)
			}
			r[in.fd&regMask] = int64(v)
			retired++
		case dAddiLd4:
			a := r[in.rs1&regMask] + in.imm
			r[in.rd&regMask] = a
			v, ok := guest.PageLoad4(pages, uint64(a+in.imm2))
			if !ok {
				return it.slowAccess(id, i, retired+1)
			}
			r[in.fd&regMask] = int64(v)
			retired++
		case dAddiLd8:
			a := r[in.rs1&regMask] + in.imm
			r[in.rd&regMask] = a
			v, ok := guest.PageLoad8(pages, uint64(a+in.imm2))
			if !ok {
				return it.slowAccess(id, i, retired+1)
			}
			r[in.fd&regMask] = int64(v)
			retired++
		case dAddiFLd8:
			a := r[in.rs1&regMask] + in.imm
			r[in.rd&regMask] = a
			v, ok := guest.PageLoad8(pages, uint64(a+in.imm2))
			if !ok {
				return it.slowAccess(id, i, retired+1)
			}
			f[in.fd&regMask] = math.Float64frombits(v)
			retired++
		case dMuliAdd:
			t := r[in.rs1&regMask] * in.imm
			r[in.rd&regMask] = t
			r[in.fd&regMask] = r[in.rs2&regMask] + t
			retired++
		case dMuliAddLd8:
			t := r[in.rs1&regMask] * in.imm
			r[in.rd&regMask] = t
			s := r[in.rs2&regMask] + t
			r[in.fd&regMask] = s
			v, ok := guest.PageLoad8(pages, uint64(s+in.imm2))
			if !ok {
				return it.slowAccess(id, i, retired+2)
			}
			r[in.fs&regMask] = int64(v)
			retired += 2
		case dMuliAddFLd8:
			t := r[in.rs1&regMask] * in.imm
			r[in.rd&regMask] = t
			s := r[in.rs2&regMask] + t
			r[in.fd&regMask] = s
			v, ok := guest.PageLoad8(pages, uint64(s+in.imm2))
			if !ok {
				return it.slowAccess(id, i, retired+2)
			}
			f[in.fs&regMask] = math.Float64frombits(v)
			retired += 2
		case dMuliAddSt8:
			t := r[in.rs1&regMask] * in.imm
			r[in.rd&regMask] = t
			s := r[in.rs2&regMask] + t
			r[in.fd&regMask] = s
			if !guest.PageStore8(pages, uint64(s+in.imm2), uint64(r[in.fs&regMask])) {
				return it.slowAccess(id, i, retired+2)
			}
			retired += 2
		case dMuliAddFSt8:
			t := r[in.rs1&regMask] * in.imm
			r[in.rd&regMask] = t
			s := r[in.rs2&regMask] + t
			r[in.fd&regMask] = s
			if !guest.PageStore8(pages, uint64(s+in.imm2), math.Float64bits(f[in.fs&regMask])) {
				return it.slowAccess(id, i, retired+2)
			}
			retired += 2
		default: // dBad
			return it.failBlock(id, in.gi, retired)
		}
		retired++
	}
	it.DynInsts += retired
	c := &it.Prof.succs[id][slot]
	c.id = int32(next)
	c.n++
	return next, nil
}

// slowAccess is RunBlock's path for a memory access the guest.PageLoad
// and guest.PageStore fast path declined: an unallocated page (a load
// reads zero, a store allocates the page), a page-crossing access, the
// tail, or a fault. The access has had no effect (for a fused op, only the
// halves before it have), so it runs the original guest instruction
// through guest.Exec, which goes through Memory.Load/Store. If that
// faults, the block fails as the reference engine would; otherwise the
// block resumes after decoded op i with the instruction retired. The miss
// leaves RunBlock's loop by a return rather than merging a slow-path value
// back into it: a merge makes the compiler spill every load's result on
// the fast path.
//
//go:noinline
func (it *Interpreter) slowAccess(id, i int, retired uint64) (int, error) {
	gi := it.dec.code[it.dec.blocks[id].start+int32(i)].gi
	if _, err := guest.Exec(it.Prog.Blocks[id].Insts[gi], it.St, it.Mem); err != nil {
		return it.failBlock(id, gi, retired)
	}
	return it.runFrom(id, i+1, retired+1)
}

// failBlock is the decoded engine's only fault path, reached from dBad
// and from a slowAccess that faulted: it folds the block's instructions
// retired before the faulting one — for a fused op, the halves that
// precede the faulting access — into DynInsts and reproduces the
// reference interpreter's error for the original guest instruction at
// index gi. The faulting instruction has had no architectural effect, so
// re-running it through guest.Exec is side-effect-free and yields the
// identical error chain.
//
//go:noinline
func (it *Interpreter) failBlock(id int, gi int32, retired uint64) (int, error) {
	it.DynInsts += retired
	in := it.Prog.Blocks[id].Insts[gi]
	if _, err := guest.Exec(in, it.St, it.Mem); err != nil {
		return HaltID, fmt.Errorf("interp: B%d %s: %w", id, in, err)
	}
	return HaltID, fmt.Errorf("interp: B%d %s: decoded fault not reproduced by reference", id, in)
}

// runBlockRef is the reference engine: one guest.Exec call per instruction.
func (it *Interpreter) runBlockRef(id int) (int, error) {
	b := it.Prog.Block(id)
	if b == nil {
		return HaltID, fmt.Errorf("interp: no block %d", id)
	}
	it.Prof.BlockCounts[id]++
	next := id + 1 // fallthrough unless a control instruction says otherwise
	st, mem, insts := it.St, it.Mem, b.Insts
	retired := uint64(0)
	for i := range insts {
		ctl, err := guest.Exec(insts[i], st, mem)
		if err != nil {
			it.DynInsts += retired
			return HaltID, fmt.Errorf("interp: B%d %s: %w", id, insts[i], err)
		}
		retired++
		switch ctl {
		case guest.CtlBranch:
			next = insts[i].Target
		case guest.CtlHalt:
			it.DynInsts += retired
			return HaltID, nil
		}
	}
	it.DynInsts += retired
	it.Prof.AddEdges(id, next, 1)
	return next, nil
}

// Run interprets from the entry block until the guest halts or the
// instruction budget is exhausted. It reports whether the guest halted.
//
// The budget is a soft cap checked between blocks: a run may overshoot
// maxInsts by at most the size of the final block executed (blocks are the
// unit of retirement; clamping mid-block would make budget-capped profiles
// depend on where the cap fell inside a block). dynopt.System.Run documents
// the same contract at region granularity.
//
// Run is a loop over RunBlock, the same code the dynamic optimization
// system drives block by block between translated regions, so every Run —
// differential tests and fuzzing included — exercises the one decoded
// dispatch switch dynopt executes.
func (it *Interpreter) Run(entry int, maxInsts uint64) (halted bool, err error) {
	id := entry
	for id != HaltID {
		if it.DynInsts >= maxInsts {
			return false, nil
		}
		id, err = it.RunBlock(id)
		if err != nil {
			return false, err
		}
	}
	return true, nil
}
