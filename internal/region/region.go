// Package region forms superblock regions along hot execution paths.
//
// Following §6 of the paper: "When a hot block is identified ... the dynamic
// optimizer forms a region along the hot execution paths starting from the
// basic block until it reaches a cold block." A superblock has a single
// entry and multiple side exits; interior conditional branches become guards
// asserting the on-trace direction, and a guard failure at runtime rolls the
// atomic region back and resumes in the interpreter.
package region

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"

	"smarq/internal/guest"
	"smarq/internal/interp"
)

// Config controls superblock formation.
type Config struct {
	// MaxInsts caps the number of guest instructions in a superblock.
	MaxInsts int
	// ColdRatio stops growth when the hottest successor's edge count is
	// below ColdRatio times the seed block's count (the paper's "cold
	// block" condition, expressed relative to the region seed).
	ColdRatio float64
	// MaxBlocks caps the number of guest blocks in a superblock.
	MaxBlocks int
	// Unroll replicates a loop-shaped trace (one whose on-path target is
	// its own entry) this many times, turning the loop-back branch of
	// each copy but the last into a guard. Larger regions give the
	// speculative scheduler more freedom and raise alias register
	// pressure — the "larger region and loop level optimizations" the
	// paper's §6.1 anticipates. 0 and 1 mean no unrolling.
	Unroll int
}

// DefaultConfig mirrors the paper's setting of large superblocks (large
// regions are "critical for achieving good performance on in-order
// processors", §2.2).
func DefaultConfig() Config {
	return Config{MaxInsts: 512, ColdRatio: 0.05, MaxBlocks: 64}
}

// Inst is one guest instruction placed in a superblock, with the guard
// fields needed to resume interpretation on a side exit. It is 48 bytes
// (TestInstSize): Form allocates one per superblock instruction, so a field
// that pads it or that nothing reads is not free.
type Inst struct {
	Inst guest.Inst

	// Guard fields, meaningful only when Inst.Op.IsBranch() and this is
	// not the final trace-ending branch:
	//   OnTraceTaken — the hot direction the trace assumes.
	//   OffTrace     — guest block to resume at if the guard fails.
	IsGuard      bool
	OnTraceTaken bool
	OffTrace     int
}

// Superblock is a single-entry trace of guest instructions.
//
// A superblock is immutable once Form returns it. Form returns one
// superblock per trace of a program (up to maxTracesPerSeed per seed), so
// every System running the program shares it, and two such superblocks
// with equal content are the same pointer. Superblocks of different
// programs can still be equal in content; Key compares them.
type Superblock struct {
	Entry  int   // guest block ID of the trace head
	Blocks []int // guest blocks along the trace, in order
	Insts  []Inst

	// FinalTarget is the guest block control reaches when the whole trace
	// executes on-path; interp.HaltID when the trace ends in Halt.
	FinalTarget int
	// UnrollFactor records how many loop iterations the trace covers
	// (0 or 1: not unrolled).
	UnrollFactor int

	key string // the encoding Key returns, written once by fill
}

// Key returns the superblock's content as a string: Entry, Blocks,
// FinalTarget, UnrollFactor and every field of every Inst, FImm as its
// bits. Two superblocks have equal keys exactly when their contents are
// equal, whichever program formed them. The encoding is written once,
// when the superblock is filled, so Key costs nothing, and comparing the
// keys of one superblock costs O(1).
func (sb *Superblock) Key() string { return sb.key }

// encode builds Key's encoding from the superblock's current content: a
// fixed sequence of varints, with Blocks and Insts prefixed by their
// lengths, so no two contents share an encoding.
func (sb *Superblock) encode() string {
	b := make([]byte, 0, 8*(4+len(sb.Blocks))+16*len(sb.Insts))
	put := func(vs ...int64) {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
	}
	put(int64(sb.Entry), int64(sb.FinalTarget), int64(sb.UnrollFactor), int64(len(sb.Blocks)))
	for _, id := range sb.Blocks {
		put(int64(id))
	}
	put(int64(len(sb.Insts)))
	for i := range sb.Insts {
		in := &sb.Insts[i]
		put(int64(in.Inst.Op), int64(in.Inst.Rd), int64(in.Inst.Rs1), int64(in.Inst.Rs2), in.Inst.Imm,
			int64(math.Float64bits(in.Inst.FImm)), int64(in.Inst.Target), bit(in.IsGuard), bit(in.OnTraceTaken),
			int64(in.OffTrace))
	}
	return string(b)
}

// bit is b as 1 or 0.
func bit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// NumMemOps returns the number of memory instructions in the superblock
// (the paper's Figure 14 statistic).
func (sb *Superblock) NumMemOps() int {
	n := 0
	for _, in := range sb.Insts {
		if in.Inst.Op.IsMem() {
			n++
		}
	}
	return n
}

// String renders the superblock for traces.
func (sb *Superblock) String() string {
	out := fmt.Sprintf("superblock: entry B%d, blocks %v, final B%d\n", sb.Entry, sb.Blocks, sb.FinalTarget)
	for i, in := range sb.Insts {
		guard := ""
		if in.IsGuard {
			dir := "not-taken"
			if in.OnTraceTaken {
				dir = "taken"
			}
			guard = fmt.Sprintf("  ; guard %s, off-trace B%d", dir, in.OffTrace)
		}
		out += fmt.Sprintf("  %3d: %s%s\n", i, in.Inst, guard)
	}
	return out
}

// maxTracesPerSeed bounds a program's trace table: it keeps at most this
// many distinct traces per seed block, and Form returns a private
// superblock for every trace past them, as it did before the table.
const maxTracesPerSeed = 8

// traceTable holds the superblocks formed from one program, by seed block.
// It lives in the program's trace slot (guest.Program.Traces), so it is
// collected with the program.
type traceTable struct {
	mu    sync.Mutex
	seeds [][]*Superblock // by seed block ID; at most maxTracesPerSeed each
}

func newTraceTable(p *guest.Program) any {
	return &traceTable{seeds: make([][]*Superblock, len(p.Blocks))}
}

// lookup returns the table's superblock for a trace, or nil. The key is
// everything a superblock's content is a function of: the block chain, the
// final target and the unroll factor. The caller holds t.mu.
func (t *traceTable) lookup(blocks []int, final, unroll int) *Superblock {
	for _, sb := range t.seeds[blocks[0]] {
		if sb.FinalTarget == final && sb.UnrollFactor == unroll && slices.Equal(sb.Blocks, blocks) {
			return sb
		}
	}
	return nil
}

// Form grows a superblock starting at seed along the hottest successors in
// prof, per cfg. It returns an error when the seed block does not exist.
//
// Formation walks the trace once to choose its blocks, then looks the
// trace up in the program's trace table. A hit returns the shared
// superblock and allocates nothing. A miss fills sb.Insts, unrolled copies
// included, in one exact-size allocation and publishes the superblock,
// unless its seed already holds maxTracesPerSeed traces. Concurrent misses
// on one trace all return the superblock published first.
func Form(prog *guest.Program, prof *interp.Profile, seed int, cfg Config) (*Superblock, error) {
	if prog.Block(seed) == nil {
		return nil, fmt.Errorf("region: seed block %d does not exist", seed)
	}
	var buf [64]int // DefaultConfig's MaxBlocks; a longer chain spills to the heap
	blocks, final, n := chooseTrace(prog, prof, seed, cfg, buf[:0])
	unroll := unrollFactor(seed, final, n, cfg)

	tab := prog.Traces(newTraceTable).(*traceTable)
	tab.mu.Lock()
	sb := tab.lookup(blocks, final, unroll)
	tab.mu.Unlock()
	if sb != nil {
		return sb, nil
	}
	sb = fill(prog, blocks, final, unroll)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if won := tab.lookup(blocks, final, unroll); won != nil {
		return won, nil
	}
	if traces := &tab.seeds[seed]; len(*traces) < maxTracesPerSeed {
		*traces = append(*traces, sb)
	}
	return sb, nil
}

// CheckTraces re-fills every superblock in prog's trace table from its key
// and reports the first one that differs from its fill, in its content or
// in its Key: something wrote to a superblock that every System running
// prog shares. It returns how many superblocks it checked.
func CheckTraces(prog *guest.Program) (int, error) {
	tab := prog.Traces(newTraceTable).(*traceTable)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	n := 0
	for seed, traces := range tab.seeds {
		for _, sb := range traces {
			n++
			if len(sb.Blocks) == 0 || sb.Blocks[0] != seed || sb.Entry != seed {
				return n, fmt.Errorf("region: trace at seed B%d has entry B%d, blocks %v", seed, sb.Entry, sb.Blocks)
			}
			f := fill(prog, sb.Blocks, sb.FinalTarget, sb.UnrollFactor)
			if sb.encode() != f.key || sb.key != f.key {
				return n, fmt.Errorf("region: shared trace %v differs from its fill", sb.Blocks)
			}
		}
	}
	return n, nil
}

// chooseTrace appends to blocks the trace grown from seed along the
// hottest successors in prof, and returns it with the trace's final
// target and its instruction count. Every block contributes all its
// instructions: its body, plus its terminator as a guard, a jump or the
// final Halt.
func chooseTrace(prog *guest.Program, prof *interp.Profile, seed int, cfg Config, blocks []int) ([]int, int, int) {
	seedCount := float64(prof.BlockCounts[seed])
	var succBuf [2]int
	n := 0
	cur := seed
	for {
		blk := prog.Block(cur)
		blocks = append(blocks, cur)
		term, hasTerm := blk.Terminator()
		if hasTerm && term.Op == guest.Halt {
			return blocks, interp.HaltID, n + len(blk.Insts)
		}

		succs := blk.AppendSuccessors(succBuf[:0])
		next, edgeCount := prof.HottestSuccessor(cur, succs)
		if next == -1 {
			// Never observed leaving this block; end the trace here and
			// fall back to the first static successor.
			next = succs[0]
			edgeCount = 0
		}

		// The size cap: the instructions placed so far, including this
		// block's body but not its terminator, plus this block's length
		// as the estimate of the next block's.
		body := len(blk.Insts)
		if hasTerm {
			body--
		}
		stop := slices.Contains(blocks, next) ||
			len(blocks) >= cfg.MaxBlocks ||
			n+body+len(blk.Insts) > cfg.MaxInsts ||
			(seedCount > 0 && float64(edgeCount) < cfg.ColdRatio*seedCount)
		n += len(blk.Insts)
		if stop {
			return blocks, next, n
		}
		cur = next
	}
}

// fill builds the superblock of a chosen trace: the instructions of its
// blocks, each branch terminator resolved against the chain into a guard,
// repeated for an unrolled trace, in one exact-size allocation, and then
// its Key.
func fill(prog *guest.Program, blocks []int, final, unroll int) *Superblock {
	n := 0
	for _, id := range blocks {
		n += len(prog.Block(id).Insts)
	}
	copies := max(unroll, 1)
	sb := &Superblock{
		Entry:        blocks[0],
		Blocks:       slices.Clone(blocks),
		Insts:        make([]Inst, 0, n*copies),
		FinalTarget:  final,
		UnrollFactor: unroll,
	}
	for i, cur := range sb.Blocks {
		blk := prog.Block(cur)
		term, hasTerm := blk.Terminator()
		body := blk.Insts
		if hasTerm {
			body = body[:len(body)-1]
		}
		for _, in := range body {
			sb.Insts = append(sb.Insts, Inst{Inst: in})
		}
		if !hasTerm {
			continue
		}
		ri := Inst{Inst: term}
		if term.Op.IsBranch() {
			// The on-trace successor: the next block, or past the last
			// block the trace's final target.
			next := final
			if i+1 < len(sb.Blocks) {
				next = sb.Blocks[i+1]
			}
			ri.IsGuard = true
			ri.OnTraceTaken = next == term.Target
			if ri.OnTraceTaken {
				ri.OffTrace = cur + 1
			} else {
				ri.OffTrace = term.Target
			}
			// A branch whose two successors coincide needs no guard.
			if term.Target == cur+1 {
				ri.IsGuard = false
			}
		}
		sb.Insts = append(sb.Insts, ri)
	}
	for k := 1; k < copies; k++ {
		sb.Insts = append(sb.Insts, sb.Insts[:n]...)
	}
	sb.key = sb.encode()
	return sb
}

// unrollFactor returns the UnrollFactor of a trace from entry to final of
// n instructions: cfg.Unroll when the trace loops back to its entry and
// the copies fit in cfg.MaxInsts, else 0. The loop-back branch at the end
// of each copy is already a guard asserting the on-trace (taken)
// direction, so plain concatenation is semantically exact: a committed
// region execution retires cfg.Unroll iterations, and any early loop exit
// fails a guard and rolls back to the region entry as usual. Virtual
// register renaming during translation links copy k+1's uses to copy k's
// definitions with no extra work.
func unrollFactor(entry, final, n int, cfg Config) int {
	if cfg.Unroll <= 1 || final != entry {
		return 0
	}
	if n*cfg.Unroll > cfg.MaxInsts && cfg.MaxInsts > 0 {
		return 0
	}
	return cfg.Unroll
}
