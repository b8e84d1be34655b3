// Package sched implements the list scheduler the SMARQ allocator is
// embedded in (§5.3): instruction scheduling and alias register allocation
// run as a single pass, and the scheduler switches between a speculation
// mode (memory operations reorder freely, watched by the alias hardware)
// and a non-speculation mode (original memory order, no new alias
// registers) based on the allocator's overflow estimate.
package sched

import (
	"fmt"
	"sort"
	"sync"

	"smarq/internal/alias"
	"smarq/internal/aliashw"
	"smarq/internal/core"
	"smarq/internal/deps"
	"smarq/internal/guest"
	"smarq/internal/ir"
	"smarq/internal/readyq"
	"smarq/internal/vliw"
)

// HWMode selects the alias-detection hardware the schedule targets.
type HWMode uint8

const (
	// HWNone: no alias hardware — every dependence is a hard scheduling
	// edge (the paper's no-alias-HW baseline).
	HWNone HWMode = iota
	// HWOrdered: the order-based alias register queue (SMARQ, and the
	// Efficeon-like 16-register variant).
	HWOrdered
	// HWALAT: Itanium-like — only loads may hoist above stores (advanced
	// loads); stores cannot reorder with anything they may alias.
	HWALAT
	// HWBitmask: Efficeon-like — named registers with explicit per-
	// instruction check masks. As precise and store-capable as the
	// ordered queue, but capped at aliashw.MaxBitmaskRegs registers by
	// the encoding (§2.2).
	HWBitmask
)

// Config controls scheduling.
type Config struct {
	Mode HWMode
	// NumAliasRegs is the physical alias register file size.
	NumAliasRegs int
	// StoreReorder allows speculatively reordering may-alias stores
	// (Figure 16 disables it).
	StoreReorder bool
	// ForceNonSpec pins the scheduler in non-speculation mode: memory
	// operations stay in original order. Used as the fallback after an
	// alias register overflow.
	ForceNonSpec bool
	// PinnedOps are op IDs that must not be speculated on: every
	// dependence touching them is a hard edge. The runtime pins loads
	// whose ALAT entries keep raising false positives (a store checks
	// *every* advanced load, so hardening one pair cannot stop the trap —
	// the load must stop being advanced).
	PinnedOps map[int]bool
	// PressureMargin is subtracted from the register count before
	// comparing against the overflow estimate.
	PressureMargin int
	// Machine provides latencies for the priority function.
	Machine vliw.Config
	// Alloc selects allocator ablations (zero value = full SMARQ).
	Alloc core.Options
}

// Schedule is a finished schedule with its allocation.
type Schedule struct {
	// Seq is the linear instruction stream: scheduled ops plus the AMOVs
	// and rotates the allocator inserted.
	Seq []*ir.Op
	// Alloc is the allocator's result (orders, constraints, stats).
	Alloc *core.Result
	// NonSpecCycles counts scheduling steps spent in non-speculation mode.
	NonSpecCycles int
}

// Release recycles the schedule's allocation result (sequence, dense
// order/base views, constraint listings). The caller must be done with
// every view into the schedule, Seq included; the compile pipeline calls
// it after freezing and measuring the schedule.
func (s *Schedule) Release() {
	if s.Alloc != nil {
		s.Alloc.Release()
		s.Alloc = nil
	}
	s.Seq = nil
}

// breakable reports whether dependence d may be violated by reordering
// under the configured hardware (the check will be performed at runtime).
func (c Config) breakable(d deps.Dep) bool {
	if d.Rel.Definite() {
		return false
	}
	if c.PinnedOps[d.Src] || c.PinnedOps[d.Dst] {
		return false
	}
	switch c.Mode {
	case HWNone:
		return false
	case HWALAT:
		// Only a genuine load hoist above an earlier store is checkable.
		return d.Src < d.Dst && d.SrcIsStore && !d.DstIsStore
	default: // HWOrdered and HWBitmask: fully precise detection
		if !c.StoreReorder && d.SrcIsStore && d.DstIsStore {
			return false
		}
		return true
	}
}

// allocSink abstracts the per-mode allocation machinery the scheduling
// loop drives: the integrated ordered-queue allocator, or the lightweight
// live-count tracker of the bit-mask mode (whose actual register
// assignment is a post-pass).
type allocSink interface {
	Schedule(op *ir.Op) []*ir.Op
	Pressure(futureP int) int
}

// bitmaskSink records the schedule and tracks how many protected live
// ranges are simultaneously open, which is exactly the register demand of
// the bit-mask file. Its per-op state is indexed by op ID (a region op's
// ID is its index in the region) and the sink itself is pooled, so the
// bit-mask path builds no maps.
type bitmaskSink struct {
	ds *deps.Set
	// dstOff/dsts list, by source op, the destinations of its
	// dependences: op i's are dsts[dstOff[i]:dstOff[i+1]].
	dstOff    []int32
	dsts      []int32
	scheduled []bool
	pending   []int32 // checkee -> unscheduled checkers
	live      int
	seq       []*ir.Op
	out       [1]*ir.Op // Schedule's reused return storage
}

var bitmaskSinkPool = sync.Pool{New: func() any { return new(bitmaskSink) }}

// newBitmaskSink takes a pooled sink for a region of n ops; release
// returns it once core.AllocateBitmask has copied its sequence.
func newBitmaskSink(ds *deps.Set, n int) *bitmaskSink {
	s := bitmaskSinkPool.Get().(*bitmaskSink)
	s.ds = ds
	for _, d := range ds.All {
		n = max(n, d.Src+1, d.Dst+1)
	}
	s.dstOff = resize(s.dstOff, n+1)
	for _, d := range ds.All {
		s.dstOff[d.Src+1]++
	}
	for i := 1; i <= n; i++ {
		s.dstOff[i] += s.dstOff[i-1]
	}
	s.dsts = resize(s.dsts, len(ds.All))
	// pending doubles as the fill cursor, then is cleared for Schedule.
	s.pending = resize(s.pending, n)
	copy(s.pending, s.dstOff[:n])
	for _, d := range ds.All {
		s.dsts[s.pending[d.Src]] = int32(d.Dst)
		s.pending[d.Src]++
	}
	clear(s.pending)
	s.scheduled = resize(s.scheduled, n)
	s.live = 0
	s.seq = s.seq[:0]
	return s
}

// release returns the sink to its pool.
func (s *bitmaskSink) release() {
	clear(s.seq)
	s.seq = s.seq[:0]
	s.ds = nil
	s.out[0] = nil
	bitmaskSinkPool.Put(s)
}

// Schedule implements allocSink.
func (s *bitmaskSink) Schedule(op *ir.Op) []*ir.Op {
	s.scheduled[op.ID] = true
	s.seq = append(s.seq, op)
	if op.IsMem() {
		// op becomes a checkee for every dependence whose source is
		// still unscheduled.
		for _, d := range s.ds.ByDst(op.ID) {
			if !s.scheduled[d.Src] {
				if s.pending[op.ID] == 0 {
					s.live++
				}
				s.pending[op.ID]++
			}
		}
		// op may close live ranges it was the pending checker of.
		for _, dst := range s.dsts[s.dstOff[op.ID]:s.dstOff[op.ID+1]] {
			if s.scheduled[dst] && s.pending[dst] > 0 {
				s.pending[dst]--
				if s.pending[dst] == 0 {
					s.live--
				}
			}
		}
	}
	s.out[0] = op
	return s.out[:]
}

// Pressure implements allocSink.
func (s *bitmaskSink) Pressure(futureP int) int { return s.live + futureP }

type node struct {
	op       *ir.Op
	preds    int32 // unscheduled predecessor count
	height   int   // critical-path priority
	memIndex int32 // position among memory ops, -1 for non-memory
}

// rankSorter sorts node IDs by scheduling priority — height descending,
// ID ascending — producing the static total order the ready bitmap is
// indexed by. It lives inside the pooled scratch so sort.Sort sees an
// already-heap-allocated value and the sort itself allocates nothing.
type rankSorter struct {
	ids   []int32
	nodes []node
}

func (s *rankSorter) Len() int { return len(s.ids) }
func (s *rankSorter) Less(i, j int) bool {
	a, b := s.ids[i], s.ids[j]
	if s.nodes[a].height != s.nodes[b].height {
		return s.nodes[a].height > s.nodes[b].height
	}
	return a < b
}
func (s *rankSorter) Swap(i, j int) { s.ids[i], s.ids[j] = s.ids[j], s.ids[i] }

// scratch is the per-Run working storage, pooled so steady-state
// compilation reuses the node array, CSR edge buffers, worklists and the
// ready structures instead of reallocating them (compilations may run on
// concurrent worker goroutines, hence a pool rather than package globals).
type scratch struct {
	nodes        []node
	defOf        []int32 // vreg -> defining op, -1 when none
	succOff      []int32 // CSR: nodes[i] successors are succs[succOff[i]:succOff[i+1]]
	succs        []int32
	cursor       []int32
	forcedP      []bool
	readyTime    []int
	memScheduled []bool
	// Rank-bitmap selection state (Run).
	rankOf   []int32 // node id -> rank in the static priority order
	rankID   []int32 // rank -> node id
	memOrder []int32 // memIndex -> node id
	readyBM  readyq.Bitmap
	deferBM  readyq.Bitmap
	sorter   rankSorter
	// Heap selection state (RunRef).
	ready    readyHeap
	deferred []item
	stash    []item
}

var scratchPool = sync.Pool{New: func() interface{} { return &scratch{} }}

// grab returns pooled storage sized for n ops and nv vregs, cleared.
func (sc *scratch) grab(n, nv int) {
	sc.nodes = resize(sc.nodes, n)
	sc.defOf = resize(sc.defOf, nv)
	for i := range sc.defOf {
		sc.defOf[i] = -1
	}
	sc.succOff = resize(sc.succOff, n+1)
	sc.forcedP = resize(sc.forcedP, n)
	sc.readyTime = resize(sc.readyTime, n)
	sc.ready = sc.ready[:0]
	sc.deferred = sc.deferred[:0]
	sc.stash = sc.stash[:0]
}

// resize returns s with length n, reusing capacity, zeroing the contents.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// buildNodes fills the node array from the region's ops and returns the
// number of memory ops.
func buildNodes(sc0 *scratch, reg *ir.Region) int32 {
	nodes := sc0.nodes
	defOf := sc0.defOf
	memSeq := int32(0)
	for i, op := range reg.Ops {
		nodes[i] = node{op: op, memIndex: -1}
		if op.IsMem() {
			nodes[i].memIndex = memSeq
			memSeq++
		}
		if op.Dst != ir.NoVReg {
			defOf[op.Dst] = int32(i)
		}
	}
	return memSeq
}

// buildEdges constructs the hard scheduling edges in compressed sparse
// rows: one counting pass, one fill pass (both visit edges in the
// identical deterministic order). Duplicate edges are kept, exactly like
// a per-node append would — preds is incremented and released per
// duplicate, which cancels out.
func buildEdges(sc0 *scratch, reg *ir.Region, ds *deps.Set, cfg Config) (succOff, succs []int32) {
	n := len(reg.Ops)
	nodes := sc0.nodes
	defOf := sc0.defOf
	hardEdge := func(d deps.Dep) (int, int, bool) {
		if cfg.ForceNonSpec || !cfg.breakable(d) {
			lo, hi := d.Src, d.Dst
			if lo > hi {
				lo, hi = hi, lo
			}
			if lo != hi {
				return lo, hi, true
			}
		}
		return 0, 0, false
	}
	succOff = sc0.succOff
	for i, op := range reg.Ops {
		for _, s := range op.Srcs {
			if d := defOf[s]; d >= 0 && int(d) != i {
				succOff[d+1]++
			}
		}
	}
	for _, d := range ds.All {
		if from, to, ok := hardEdge(d); ok && from != to {
			succOff[from+1]++
		}
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	sc0.succs = resize(sc0.succs, int(succOff[n]))
	succs = sc0.succs
	// Fill using a moving per-node cursor initialized from the offsets.
	sc0.cursor = resize(sc0.cursor, n)
	next := sc0.cursor
	copy(next, succOff[:n])
	addEdge := func(from, to int) {
		succs[next[from]] = int32(to)
		next[from]++
		nodes[to].preds++
	}
	for i, op := range reg.Ops {
		for _, s := range op.Srcs {
			if d := defOf[s]; d >= 0 && int(d) != i {
				addEdge(int(d), i)
			}
		}
	}
	for _, d := range ds.All {
		if from, to, ok := hardEdge(d); ok {
			addEdge(from, to)
		}
	}
	return succOff, succs
}

// computeHeights assigns each node its critical-path priority: the
// longest latency-weighted path to a leaf.
func computeHeights(sc0 *scratch, cfg Config, succsOf func(int) []int32) {
	nodes := sc0.nodes
	for i := len(nodes) - 1; i >= 0; i-- {
		nd := &nodes[i]
		h := 0
		for _, s := range succsOf(i) {
			if nodes[s].height > h {
				h = nodes[s].height
			}
		}
		nd.height = h + cfg.Machine.Latency(nd.op)
	}
}

// computeForcedP marks memory ops that will set an alias register even in
// non-speculation mode — destinations of backward (extended) dependences
// (Figure 13 line 24's future-usage term) — and returns their count.
func computeForcedP(sc0 *scratch, ds *deps.Set, cfg Config) int {
	forcedP := sc0.forcedP
	futureP := 0
	for _, d := range ds.All {
		if d.Src > d.Dst && cfg.breakable(d) && !forcedP[d.Dst] {
			forcedP[d.Dst] = true
			futureP++
		}
	}
	return futureP
}

// Run schedules the region and allocates alias registers. The dependence
// set must already include extended dependences. On alias register
// overflow it returns an error; the caller should retry with ForceNonSpec
// or with speculation disabled in the optimizer.
//
// Ready-op selection uses a hierarchical CLZ bitmap over the *static*
// priority order (height descending, ID ascending — itemLess of the
// reference heap). Because the priority of an op never changes once
// heights are computed, ranks can be assigned up front and "pop the best
// ready op" becomes Bitmap.Min: three LeadingZeros64 probes instead of a
// heap sift. RunRef keeps the heap implementation; the two walk ready
// sets in the identical total order and must produce identical schedules
// (TestRunMatchesReference).
func Run(reg *ir.Region, tbl *alias.Table, ds *deps.Set, cfg Config) (*Schedule, error) {
	n := len(reg.Ops)
	sc0 := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc0)
	sc0.grab(n, reg.NumVRegs)
	nodes := sc0.nodes
	memSeq := buildNodes(sc0, reg)
	succOff, succs := buildEdges(sc0, reg, ds, cfg)
	succsOf := func(i int) []int32 { return succs[succOff[i]:succOff[i+1]] }
	computeHeights(sc0, cfg, succsOf)
	forcedP := sc0.forcedP
	futureP := computeForcedP(sc0, ds, cfg)

	// Static selection order: rankID lists node IDs by priority, rankOf
	// inverts it, memOrder finds the op owning a given memIndex in O(1).
	sc0.rankID = resize(sc0.rankID, n)
	rankID := sc0.rankID
	for i := range rankID {
		rankID[i] = int32(i)
	}
	sc0.sorter.ids, sc0.sorter.nodes = rankID, nodes
	sort.Sort(&sc0.sorter)
	sc0.rankOf = resize(sc0.rankOf, n)
	rankOf := sc0.rankOf
	for r, id := range rankID {
		rankOf[id] = int32(r)
	}
	sc0.memOrder = resize(sc0.memOrder, int(memSeq))
	memOrder := sc0.memOrder
	for i := range nodes {
		if mi := nodes[i].memIndex; mi >= 0 {
			memOrder[mi] = int32(i)
		}
	}

	var alloc allocSink
	var ordered *core.Allocator
	var bitmask *bitmaskSink
	numRegs := cfg.NumAliasRegs
	if cfg.Mode == HWBitmask {
		if numRegs > aliashw.MaxBitmaskRegs {
			numRegs = aliashw.MaxBitmaskRegs
		}
		bitmask = newBitmaskSink(ds, n)
		defer bitmask.release()
		alloc = bitmask
	} else {
		ordered = core.NewAllocatorOpts(n, ds, numRegs, cfg.Alloc)
		alloc = ordered
	}
	readyBM := &sc0.readyBM
	deferBM := &sc0.deferBM
	readyBM.Reset(n)
	deferBM.Reset(n)
	for i := range nodes {
		if nodes[i].preds == 0 {
			readyBM.Set(int(rankOf[i]))
		}
	}

	sc := &Schedule{}
	nextMem := int32(0) // lowest memIndex not yet scheduled (non-spec order rule)
	sc0.memScheduled = resize(sc0.memScheduled, int(memSeq))
	memScheduled := sc0.memScheduled

	// Cycle-driven list scheduling: an op is pickable when its operands
	// are ready at the current clock and a slot of its class remains in
	// the current cycle. This is what makes speculation profitable to the
	// scheduler — a load whose operands are ready hoists into the stall
	// cycles an in-order machine would otherwise waste.
	readyTime := sc0.readyTime
	clock, aluUsed, memUsed := 0, 0, 0
	advance := func(to int) {
		if to <= clock {
			to = clock + 1
		}
		clock = to
		aluUsed, memUsed = 0, 0
	}
	charge := func(op *ir.Op) {
		if aluUsed >= cfg.Machine.IssueWidth ||
			(op.IsMem() && memUsed >= cfg.Machine.MemPorts) {
			advance(clock + 1)
		}
		aluUsed++
		if op.IsMem() {
			memUsed++
		}
	}

	scheduledCount := 0
	for scheduledCount < n {
		pressure := alloc.Pressure(futureP)
		nonSpec := cfg.ForceNonSpec || pressure >= numRegs-cfg.PressureMargin
		if nonSpec {
			sc.NonSpecCycles++
		}

		// Re-arm deferred ops that are now permitted: all of them when
		// speculation resumed, else just the one next-in-order memory op
		// (found directly through memOrder — no list scan).
		if !deferBM.Empty() {
			if !nonSpec {
				readyBM.UnionInto(deferBM)
			} else if nextMem < memSeq {
				if r := int(rankOf[memOrder[nextMem]]); deferBM.Has(r) {
					deferBM.Clear(r)
					readyBM.Set(r)
				}
			}
		}

		// Walk ready ops in priority order. Mode-blocked memory ops move
		// to the deferred bitmap; time- or resource-blocked ops simply
		// stay set (the walk skips them — no stash/re-push round trip).
		picked := -1
		for r := readyBM.Min(); r >= 0; r = readyBM.NextAfter(r) {
			id := int(rankID[r])
			nd := &nodes[id]
			if nonSpec && nd.memIndex >= 0 && nd.memIndex != nextMem {
				readyBM.Clear(r)
				deferBM.Set(r)
				continue
			}
			if readyTime[id] > clock ||
				aluUsed >= cfg.Machine.IssueWidth ||
				(nd.op.IsMem() && memUsed >= cfg.Machine.MemPorts) {
				continue
			}
			picked = id
			readyBM.Clear(r)
			break
		}

		if picked < 0 {
			if !readyBM.Empty() {
				// Nothing issues this cycle: advance to the earliest time
				// a stalled op becomes ready.
				min := int(^uint(0) >> 1)
				for r := readyBM.Min(); r >= 0; r = readyBM.NextAfter(r) {
					if rt := readyTime[rankID[r]]; rt < min {
						min = rt
					}
				}
				advance(min)
				continue
			}
			// Only mode-deferred ops remain: schedule the next in-order
			// memory op (progress guarantee — see package comment).
			r := -1
			if nextMem < memSeq {
				if cand := int(rankOf[memOrder[nextMem]]); deferBM.Has(cand) {
					r = cand
				}
			}
			if r == -1 {
				return nil, fmt.Errorf("sched: stuck with %d deferred ops at %d/%d scheduled", deferBM.Count(), scheduledCount, n)
			}
			deferBM.Clear(r)
			picked = int(rankID[r])
			if readyTime[picked] > clock {
				advance(readyTime[picked])
			}
		}

		nd := nodes[picked]
		if isDeadPlaceholder(nd.op) {
			// Placeholder of an eliminated store: occupies no slot and
			// emits nothing, but still releases its successors.
		} else {
			for _, em := range alloc.Schedule(nd.op) {
				charge(em)
			}
		}
		scheduledCount++
		finish := clock + cfg.Machine.Latency(nd.op)
		if nd.memIndex >= 0 {
			memScheduled[nd.memIndex] = true
			for nextMem < memSeq && memScheduled[nextMem] {
				nextMem++
			}
			if forcedP[nd.op.ID] {
				futureP--
			}
		}
		for _, s := range succsOf(picked) {
			if finish > readyTime[s] {
				readyTime[s] = finish
			}
			nodes[s].preds--
			if nodes[s].preds == 0 {
				readyBM.Set(int(rankOf[s]))
			}
		}
	}

	if bitmask != nil {
		res, err := core.AllocateBitmask(bitmask.seq, ds, numRegs)
		if err != nil {
			return nil, err
		}
		sc.Seq = res.Seq
		sc.Alloc = res
		return sc, nil
	}
	res, err := ordered.Finish()
	if err != nil {
		return nil, err
	}
	sc.Seq = res.Seq
	sc.Alloc = res
	return sc, nil
}

// isDeadPlaceholder recognizes the no-op left behind by an eliminated
// store.
func isDeadPlaceholder(op *ir.Op) bool {
	return op.Kind == ir.Arith && op.GOp == guest.Nop &&
		op.Dst == ir.NoVReg && len(op.Srcs) == 0
}
