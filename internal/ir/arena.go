package ir

// Arena is a reusable slab allocator for translated regions. Translation
// carves the Region, its Ops, operand lists, SrcFloat flags and MemInfos
// out of one arena, so a compile performs a constant number of heap
// allocations regardless of region size — and with a recycled arena,
// none at all once the slabs have grown to steady state.
//
// Lifetime contract: every pointer handed out aliases arena memory and
// becomes invalid at the next Reset. Long-lived consumers must copy out
// what they keep before the arena is recycled: installed code does so by
// decoding the schedule (vliw.Compile), and Freeze snapshots the IR
// itself.
type Arena struct {
	ops   []Op
	mems  []MemInfo
	vregs []VReg // slab backing every op's Srcs
	flags []bool // slab backing every op's SrcFloat
	ptrs  []*Op  // slab backing Region.Ops
	regs  []Region
}

// NewArena returns an empty arena; slabs grow on demand and are retained
// across Reset.
func NewArena() *Arena { return &Arena{} }

// Reset truncates every slab for reuse. Pointer-holding entries are
// cleared so recycled memory does not keep previously translated regions
// reachable.
func (a *Arena) Reset() {
	for i := range a.ops {
		a.ops[i] = Op{}
	}
	a.ops = a.ops[:0]
	a.mems = a.mems[:0]
	a.vregs = a.vregs[:0]
	a.flags = a.flags[:0]
	for i := range a.ptrs {
		a.ptrs[i] = nil
	}
	a.ptrs = a.ptrs[:0]
	for i := range a.regs {
		a.regs[i] = Region{}
	}
	a.regs = a.regs[:0]
}

// NewRegion carves a Region whose Ops slice has the given capacity.
// Exceeding the capacity is harmless — append simply leaves the slab —
// but defeats the batching, so callers pass an exact upper bound.
func (a *Arena) NewRegion(capOps int) *Region {
	a.regs = append(a.regs, Region{Ops: a.opPtrs(capOps)})
	return &a.regs[len(a.regs)-1]
}

// NewOp places o in the arena. Growth past the slab capacity keeps
// earlier pointers valid (they refer to the old backing array).
func (a *Arena) NewOp(o Op) *Op {
	a.ops = append(a.ops, o)
	return &a.ops[len(a.ops)-1]
}

// NewMem places m in the arena.
func (a *Arena) NewMem(m MemInfo) *MemInfo {
	a.mems = append(a.mems, m)
	return &a.mems[len(a.mems)-1]
}

// Srcs1, Srcs2, Flags1 and Flags2 carve capped operand lists out of the
// slabs; the three-index slice keeps a later append from clobbering a
// neighboring op's operands.

func (a *Arena) Srcs1(x VReg) []VReg {
	n := len(a.vregs)
	a.vregs = append(a.vregs, x)
	return a.vregs[n : n+1 : n+1]
}

func (a *Arena) Srcs2(x, y VReg) []VReg {
	n := len(a.vregs)
	a.vregs = append(a.vregs, x, y)
	return a.vregs[n : n+2 : n+2]
}

func (a *Arena) Flags1(x bool) []bool {
	n := len(a.flags)
	a.flags = append(a.flags, x)
	return a.flags[n : n+1 : n+1]
}

func (a *Arena) Flags2(x, y bool) []bool {
	n := len(a.flags)
	a.flags = append(a.flags, x, y)
	return a.flags[n : n+2 : n+2]
}

// opPtrs carves a zero-length op-pointer slice with the given capacity.
func (a *Arena) opPtrs(capacity int) []*Op {
	n := len(a.ptrs)
	if cap(a.ptrs)-n < capacity {
		grown := make([]*Op, n, 2*cap(a.ptrs)+capacity)
		copy(grown, a.ptrs)
		a.ptrs = grown
	}
	a.ptrs = a.ptrs[:n+capacity]
	return a.ptrs[n : n : n+capacity]
}

// Freeze deep-copies a scheduled sequence and its source region into
// compact, freshly allocated storage that shares nothing with any arena
// or scheduler scratch, preserving pointer identity: if seq[i] and
// reg.Ops[j] are the same op, the frozen copies are too. Once frozen,
// the arena can be recycled while the snapshot lives on. The compile
// pipeline does not need it — vliw.Compile keeps only its decoded form —
// so Freeze serves callers that want the scheduled IR itself.
//
// Freeze relies on op IDs being unique across reg.Ops and seq (original
// ops carry their region index, allocator-inserted Rotate/AMov pseudo-ops
// carry fresh IDs past it), which Region.Validate and the allocator
// enforce.
func Freeze(seq []*Op, reg *Region) ([]*Op, *Region) {
	maxID := -1
	for _, o := range reg.Ops {
		if o.ID > maxID {
			maxID = o.ID
		}
	}
	for _, o := range seq {
		if o.ID > maxID {
			maxID = o.ID
		}
	}

	// Collect unique ops in first-seen order and size the slabs exactly so
	// interior pointers into mems stay stable while filling.
	uniq := make([]*Op, 0, maxID+1)
	seen := make([]bool, maxID+1)
	nSrcs, nMems := 0, 0
	note := func(o *Op) {
		if seen[o.ID] {
			return
		}
		seen[o.ID] = true
		uniq = append(uniq, o)
		nSrcs += len(o.Srcs)
		if o.Mem != nil {
			nMems++
		}
	}
	for _, o := range reg.Ops {
		note(o)
	}
	for _, o := range seq {
		note(o)
	}

	ops := make([]Op, len(uniq))
	vregs := make([]VReg, nSrcs)
	flags := make([]bool, nSrcs)
	mems := make([]MemInfo, nMems)
	newOf := make([]*Op, maxID+1)
	vi, mi := 0, 0
	for i, o := range uniq {
		ops[i] = *o
		n := &ops[i]
		if k := len(o.Srcs); k > 0 {
			n.Srcs = vregs[vi : vi+k : vi+k]
			copy(n.Srcs, o.Srcs)
			n.SrcFloat = flags[vi : vi+k : vi+k]
			copy(n.SrcFloat, o.SrcFloat)
			vi += k
		} else {
			// Drop empty-but-capped slice headers: they would keep the
			// old backing (possibly an arena slab) reachable.
			n.Srcs = nil
			n.SrcFloat = nil
		}
		if o.Mem != nil {
			mems[mi] = *o.Mem
			n.Mem = &mems[mi]
			mi++
		}
		newOf[o.ID] = n
	}

	newSeq := make([]*Op, len(seq))
	for i, o := range seq {
		newSeq[i] = newOf[o.ID]
	}
	newReg := &Region{
		Ops:         make([]*Op, len(reg.Ops)),
		NumVRegs:    reg.NumVRegs,
		IntOut:      reg.IntOut,
		FloatOut:    reg.FloatOut,
		Entry:       reg.Entry,
		FinalTarget: reg.FinalTarget,
	}
	for i, o := range reg.Ops {
		newReg.Ops[i] = newOf[o.ID]
	}
	return newSeq, newReg
}
