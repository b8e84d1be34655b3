package core

import (
	"fmt"
	"sync"

	"smarq/internal/aliashw"
	"smarq/internal/deps"
	"smarq/internal/ir"
)

// AllocateBitmask performs alias register allocation for the
// Efficeon-like bit-mask hardware (§2.2): registers are *named*, not
// ordered — each protected operation gets one of numRegs registers for
// its live range (its position to its last checker's position), and each
// checker's instruction encodes the exact set of registers to examine as
// a bit-mask. Precision is perfect (no false positives, no
// anti-constraints, no AMOVs) but the encoding caps the file at
// aliashw.MaxBitmaskRegs — the scalability wall of Table 1.
//
// seq is the scheduled sequence (memory and non-memory ops; no rotates or
// AMOVs exist in this mode). The ops are annotated in place: checkees get
// P and AROffset (the register number), checkers get C and ARMask. It
// fails when the live ranges need more than numRegs registers — the
// caller must retry with less speculation. The Result holds a copy of
// seq, so the caller may reuse seq's storage.
func AllocateBitmask(seq []*ir.Op, ds *deps.Set, numRegs int) (*Result, error) {
	if numRegs > aliashw.MaxBitmaskRegs {
		numRegs = aliashw.MaxBitmaskRegs
	}
	b := bitmaskPool.Get().(*bitmaskScratch)
	defer bitmaskPool.Put(b)

	maxID := -1
	for _, op := range seq {
		maxID = max(maxID, op.ID)
	}
	for _, d := range ds.All {
		maxID = max(maxID, d.Src, d.Dst)
	}
	b.pos = resetInt32s(b.pos, maxID+1, -1)
	for i, op := range seq {
		b.pos[op.ID] = int32(i)
	}

	// Derive check pairs: for a dependence s →dep d, the later-executing
	// op checks the earlier one exactly when d precedes s in the schedule
	// (the same CHECK-CONSTRAINT rule as the ordered queue; here it only
	// decides who checks whom, with no ordering consequences). Each
	// checkee's interval runs from its own position to its last checker's;
	// ckOff first counts each interval's checkers.
	b.ivOf = resetInt32s(b.ivOf, maxID+1, -1)
	b.ivs = b.ivs[:0]
	b.ckOff = b.ckOff[:0]
	for _, d := range ds.All {
		ps, pd := b.pos[d.Src], b.pos[d.Dst]
		if ps < 0 || pd < 0 || pd >= ps {
			continue
		}
		iv := b.ivOf[d.Dst]
		if iv < 0 {
			iv = int32(len(b.ivs))
			b.ivOf[d.Dst] = iv
			b.ivs = append(b.ivs, bmInterval{start: pd, end: pd})
			b.ckOff = append(b.ckOff, 0)
		}
		b.ivs[iv].end = max(b.ivs[iv].end, ps)
		b.ckOff[iv]++
	}
	// Group the checkers by interval, in dependence order: interval i's
	// are ck[ckOff[i]:ckOff[i+1]].
	n := int32(0)
	for i, c := range b.ckOff {
		b.ckOff[i] = n
		n += c
	}
	b.ckOff = append(b.ckOff, n)
	b.cursor = append(b.cursor[:0], b.ckOff...)
	b.ck = resetInt32s(b.ck, int(n), 0)
	for _, d := range ds.All {
		ps, pd := b.pos[d.Src], b.pos[d.Dst]
		if ps < 0 || pd < 0 || pd >= ps {
			continue
		}
		iv := b.ivOf[d.Dst]
		b.ck[b.cursor[iv]] = ps
		b.cursor[iv]++
	}

	// Linear scan over intervals ordered by start. A checkee's position is
	// its interval's start, so starts are unique and bucketing the
	// intervals by start sorts them.
	b.ivAt = resetInt32s(b.ivAt, len(seq), -1)
	for i := range b.ivs {
		b.ivAt[b.ivs[i].start] = int32(i)
	}
	b.free = b.free[:0]
	for r := numRegs - 1; r >= 0; r-- {
		b.free = append(b.free, int32(r)) // pop from the back -> lowest register first
	}
	b.act = b.act[:0]
	stats := Stats{}
	for _, i := range b.ivAt {
		if i < 0 {
			continue
		}
		iv := &b.ivs[i]
		// Expire finished intervals.
		keep := b.act[:0]
		for _, a := range b.act {
			if a.end < iv.start {
				b.free = append(b.free, a.reg)
			} else {
				keep = append(keep, a)
			}
		}
		b.act = keep
		if len(b.free) == 0 {
			return nil, fmt.Errorf("core: bitmask allocation needs more than %d registers", numRegs)
		}
		iv.reg = b.free[len(b.free)-1]
		b.free = b.free[:len(b.free)-1]
		b.act = append(b.act, bmActive{end: iv.end, reg: iv.reg})
		stats.WorkingSet = max(stats.WorkingSet, len(b.act))
	}

	// Annotate, in the same order.
	res := resultPool.Get().(*Result)
	res.Seq = append(res.Seq[:0], seq...)
	res.Checks = res.Checks[:0]
	for _, i := range b.ivAt {
		if i < 0 {
			continue
		}
		iv := &b.ivs[i]
		ce := seq[iv.start]
		ce.P = true
		ce.AROffset = int(iv.reg)
		stats.PBits++
		for _, p := range b.ck[b.ckOff[i]:b.ckOff[i+1]] {
			op := seq[p]
			if !op.C {
				op.C = true
				stats.CBits++
			}
			op.ARMask |= 1 << uint(iv.reg)
			stats.Checks++
			res.Checks = append(res.Checks, [2]int{op.ID, ce.ID})
		}
	}
	for _, op := range seq {
		if op.IsMem() {
			stats.MemOps++
		}
	}
	res.Stats = stats
	return res, nil
}

// bitmaskScratch is AllocateBitmask's working storage, indexed by op ID
// or schedule position and pooled, so the bit-mask path builds no maps
// and, once warm, allocates nothing but what its Result lacks.
type bitmaskScratch struct {
	pos    []int32 // op ID -> schedule position, -1 when not in seq
	ivOf   []int32 // checkee op ID -> its interval, -1 when none
	ivAt   []int32 // schedule position -> the interval starting there, -1 when none
	ivs    []bmInterval
	ckOff  []int32 // interval i's checkers' positions are ck[ckOff[i]:ckOff[i+1]]
	cursor []int32
	ck     []int32
	free   []int32
	act    []bmActive
}

// bmInterval is one checkee's live range, in schedule positions, and the
// register it gets.
type bmInterval struct{ start, end, reg int32 }

type bmActive struct{ end, reg int32 }

var bitmaskPool = sync.Pool{New: func() any { return new(bitmaskScratch) }}
