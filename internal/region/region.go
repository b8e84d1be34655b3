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
	"fmt"
	"slices"

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
type Superblock struct {
	ID     int
	Entry  int   // guest block ID of the trace head
	Blocks []int // guest blocks along the trace, in order
	Insts  []Inst

	// FinalTarget is the guest block control reaches when the whole trace
	// executes on-path; interp.HaltID when the trace ends in Halt.
	FinalTarget int
	// UnrollFactor records how many loop iterations the trace covers
	// (0 or 1: not unrolled).
	UnrollFactor int
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
	out := fmt.Sprintf("superblock %d: entry B%d, blocks %v, final B%d\n", sb.ID, sb.Entry, sb.Blocks, sb.FinalTarget)
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

// Form grows a superblock starting at seed along the hottest successors in
// prof, per cfg. It returns an error when the seed block does not exist.
//
// Formation walks the trace once to choose its blocks and count their
// instructions, then fills sb.Insts, unrolled copies included, in one
// exact-size allocation.
func Form(prog *guest.Program, prof *interp.Profile, seed int, cfg Config) (*Superblock, error) {
	if prog.Block(seed) == nil {
		return nil, fmt.Errorf("region: seed block %d does not exist", seed)
	}
	sb := &Superblock{Entry: seed, FinalTarget: interp.HaltID}
	seedCount := float64(prof.BlockCounts[seed])

	// Choose the blocks. Every block contributes all its instructions:
	// its body, plus its terminator as a guard, a jump or the final Halt.
	n := 0
	cur := seed
	for {
		blk := prog.Block(cur)
		sb.Blocks = append(sb.Blocks, cur)
		term, hasTerm := blk.Terminator()
		if hasTerm && term.Op == guest.Halt {
			n += len(blk.Insts)
			sb.FinalTarget = interp.HaltID
			break
		}

		succs := blk.Successors()
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
		stop := slices.Contains(sb.Blocks, next) ||
			len(sb.Blocks) >= cfg.MaxBlocks ||
			n+body+len(blk.Insts) > cfg.MaxInsts ||
			(seedCount > 0 && float64(edgeCount) < cfg.ColdRatio*seedCount)
		n += len(blk.Insts)
		if stop {
			sb.FinalTarget = next
			break
		}
		cur = next
	}

	copies := unrollFactor(sb, n, cfg)
	sb.Insts = make([]Inst, 0, n*copies)
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
			next := sb.FinalTarget
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
	if copies > 1 {
		sb.UnrollFactor = copies
	}
	return sb, nil
}

// unrollFactor returns how many copies of a loop-shaped trace body of n
// instructions the superblock holds: cfg.Unroll when the trace loops back
// to its entry and the copies fit in cfg.MaxInsts, else 1. The loop-back
// branch at the end of each copy is already a guard asserting the
// on-trace (taken) direction, so plain concatenation is semantically
// exact: a committed region execution retires cfg.Unroll iterations, and
// any early loop exit fails a guard and rolls back to the region entry as
// usual. Virtual register renaming during translation links copy k+1's
// uses to copy k's definitions with no extra work.
func unrollFactor(sb *Superblock, n int, cfg Config) int {
	if cfg.Unroll <= 1 || sb.FinalTarget != sb.Entry {
		return 1
	}
	if n*cfg.Unroll > cfg.MaxInsts && cfg.MaxInsts > 0 {
		return 1
	}
	return cfg.Unroll
}
