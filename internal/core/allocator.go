// Package core implements SMARQ's alias register allocation — the paper's
// primary contribution (§5, Figure 13).
//
// The allocator consumes a stream of scheduled operations (it is designed
// to sit inside a list scheduler, §5.3) and incrementally:
//
//   - builds check- and anti-constraints from the dependences, exactly one
//     dependence examined per edge, at its Dst op's scheduling;
//   - maintains the partial order T with incremental cycle detection,
//     breaking true cycles by inserting AMOV instructions (§5.2);
//   - assigns alias register *orders* in constraint order with delayed
//     allocation: an op's register order is assigned only once its last
//     pending checker has been allocated, which both satisfies
//     REGISTER-ALLOCATION-RULE and makes every drained register dead at the
//     op just scheduled — so the rotation emitted after that op safely
//     reuses them (§3.2);
//   - converts orders to offsets via the invariance
//     order(X) = base(X) + offset(X), flagging overflow when an offset
//     reaches the physical register count.
//
// Edge direction convention (documented in DESIGN.md): a constraint edge
// A → B means order(A) ≤ order(B) (strict for anti), and B's allocation is
// blocked until A's. All edges are created pointing into the op being
// scheduled, so unscheduled ops never have incoming edges.
//
// Per-op state lives in dense slices indexed by op ID (region ops first,
// AMOV/rotate pseudo IDs after), and the constraint graph is pooled, so a
// compilation's allocator cost is a handful of slice allocations rather
// than per-op map traffic.
package core

import (
	"fmt"
	"slices"
	"sync"

	"smarq/internal/constraint"
	"smarq/internal/deps"
	"smarq/internal/ir"
	"smarq/internal/readyq"
)

// Stats summarizes one region's allocation, feeding Figures 17 and 19.
type Stats struct {
	MemOps       int // memory operations seen
	PBits, CBits int // ops that set / check alias registers
	Checks       int // check-constraints inserted
	Antis        int // anti-constraints inserted
	AMovs        int // AMOV instructions inserted
	AMovCleanups int // AMOVs that are pure cleanups (no destination register)
	Rotates      int // rotate instructions inserted
	RotateTotal  int // total rotation amount (== final BASE)
	WorkingSet   int // max offset + 1 over all allocated registers
	Overflowed   bool
}

// Result is a completed allocation.
type Result struct {
	// Seq is the final linear sequence: the scheduled ops with AMOVs and
	// rotates interleaved. Memory ops carry AROffset/P/C annotations.
	Seq []*ir.Op
	// Order and Base are dense per-op-ID slices (including AMOV/rotate
	// pseudo IDs), for analysis. Order[id] is -1 when op id was never
	// allocated a register; Base[id] is -1 when op id was never scheduled.
	Order, Base []int
	// Checks and Antis are the final logical constraints (after AMOV
	// retargeting), as (src, dst) pairs.
	Checks, Antis [][2]int
	Stats         Stats

	// pseudo holds the Rotate and AMov ops the allocator inserted into
	// Seq: they live exactly as long as Seq and recycle with it.
	pseudo pseudoSlab
}

// pseudoSlab carves pseudo-ops out of chunks that never move, so a carved
// op's address stays valid while more are carved. Chunks double in size
// and are kept across reset; a pseudo-op holds no pointers, so reset
// need not clear them.
type pseudoSlab struct {
	chunks [][]ir.Op
	cur    int // chunk being carved
	n      int // ops carved from it
}

func (s *pseudoSlab) newOp(o ir.Op) *ir.Op {
	if s.cur < len(s.chunks) && s.n == len(s.chunks[s.cur]) {
		s.cur, s.n = s.cur+1, 0
	}
	if s.cur == len(s.chunks) {
		s.chunks = append(s.chunks, make([]ir.Op, 16<<len(s.chunks)))
	}
	p := &s.chunks[s.cur][s.n]
	s.n++
	*p = o
	return p
}

func (s *pseudoSlab) reset() { s.cur, s.n = 0, 0 }

// Allocated reports whether op id received an alias register order.
func (r *Result) Allocated(id int) bool {
	return id >= 0 && id < len(r.Order) && r.Order[id] >= 0
}

// resultPool recycles Results (and, through them, the sequence, order,
// base and constraint storage) across compiles.
var resultPool = sync.Pool{New: func() interface{} { return new(Result) }}

// Release hands the Result's storage back for reuse by a later
// allocation. The caller must be done with every view into it, including
// Seq; hot paths (the compile pipeline) call it once the schedule has
// been frozen and measured.
func (r *Result) Release() {
	for i := range r.Seq {
		r.Seq[i] = nil
	}
	r.Seq = r.Seq[:0]
	r.Order = r.Order[:0]
	r.Base = r.Base[:0]
	r.Checks = r.Checks[:0]
	r.Antis = r.Antis[:0]
	r.Stats = Stats{}
	r.pseudo.reset()
	resultPool.Put(r)
}

type amovInfo struct {
	op        *ir.Op
	srcID     int  // the op whose register this AMOV reads
	hasTarget bool // false for the cleanup form
}

// Allocator performs integrated alias register allocation. Create one per
// region, call Schedule for every op in the scheduler's chosen order, then
// Finish (after which the allocator must not be reused — Finish returns
// its pooled constraint graph and recycles the allocator itself).
type Allocator struct {
	ds      *deps.Set
	numRegs int
	g       *constraint.Graph
	opts    Options

	// Dense per-op state, indexed by op ID (pseudo IDs grow the slices).
	scheduled  []bool
	allocated  []bool
	pBit, cBit []bool
	order      []int32 // valid only where allocated
	base       []int32 // valid only where scheduled
	pending    []bool  // scheduled, needs a register, not yet allocated

	// pendingIDs lists ops ever marked pending, in schedule order, so
	// their bases are monotone non-decreasing; pendingHead lazily skips
	// entries whose pending flag has since cleared. Pressure's minimum
	// pinned base is therefore the first live entry — an O(1) probe
	// instead of a scan.
	pendingIDs  []int32
	pendingHead int
	pendingP    int // pending ops with P bit (overflow estimate term)
	nextOrder   int
	// ready holds allocatable ops keyed by arrival sequence number: a
	// CLZ-bitmap queue whose PopMin is exactly the drain FIFO of
	// Figure 13, with O(1) selection and a pooled backing.
	ready    readyq.Queue
	readySeq int
	// emit accumulates one Schedule call's output; the returned slice is
	// only valid until the next call.
	emit []*ir.Op
	// rangeChecked records (checker, original range owner) pairs: "checker
	// performs an alias check covering owner's access range". Written once
	// per check-constraint; AMOV retargeting moves the register but not
	// the range identity, so this map never needs updating. It implements
	// ANTI-CONSTRAINT's "there is no Y →check X" condition.
	rangeChecked map[[2]int]bool
	// liveChecks mirrors the graph's current check edges (including
	// retargets) for final verification.
	liveChecks map[[2]int]bool
	liveAntis  [][2]int
	movedTo    []int32    // op -> AMOV currently holding its entry, -1 none
	amovs      []amovInfo // indexed by pseudo ID - numOps; zero for rotates
	numOps     int
	nextPseudo int
	overflow   bool
	seq        []*ir.Op
	res        *Result // pooled; receives seq and the dense views at Finish
	stats      Stats
}

var allocPool = sync.Pool{New: func() interface{} {
	return &Allocator{
		rangeChecked: make(map[[2]int]bool),
		liveChecks:   make(map[[2]int]bool),
	}
}}

// NewAllocator creates an allocator for a region with numOps real ops, the
// given dependences, and numRegs physical alias registers. Every real op's
// T is initialized to its original program order (op ID). Allocators
// recycle through an internal pool (Finish returns them); only the
// sequence and constraint listings that escape into the Result are
// allocated fresh per region.
func NewAllocator(numOps int, ds *deps.Set, numRegs int) *Allocator {
	a := allocPool.Get().(*Allocator)
	a.ds = ds
	a.numRegs = numRegs
	a.opts = Options{}
	a.g = constraint.Get(numOps)
	a.scheduled = resetBools(a.scheduled, numOps)
	a.allocated = resetBools(a.allocated, numOps)
	a.pBit = resetBools(a.pBit, numOps)
	a.cBit = resetBools(a.cBit, numOps)
	a.pending = resetBools(a.pending, numOps)
	a.order = resetInt32s(a.order, numOps, 0)
	a.base = resetInt32s(a.base, numOps, 0)
	a.pendingIDs = a.pendingIDs[:0]
	a.pendingHead = 0
	a.pendingP = 0
	a.nextOrder = 0
	a.ready.Reset(numOps+1, numOps+1)
	a.readySeq = 0
	a.emit = a.emit[:0]
	clear(a.rangeChecked)
	clear(a.liveChecks)
	a.res = resultPool.Get().(*Result)
	a.liveAntis = a.res.Antis[:0]
	a.movedTo = resetInt32s(a.movedTo, numOps, -1)
	a.amovs = a.amovs[:0]
	a.numOps = numOps
	a.nextPseudo = numOps
	a.overflow = false
	if cap(a.res.Seq) < numOps+8 {
		a.res.Seq = make([]*ir.Op, 0, numOps+8)
	}
	a.seq = a.res.Seq[:0]
	a.stats = Stats{}
	for i := 0; i < numOps; i++ {
		a.g.SetT(i, i)
	}
	return a
}

func resetBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func resetInt32s(s []int32, n int, v int32) []int32 {
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// resizeInts returns s with length n and at least that capacity; contents
// are unspecified (callers overwrite every entry).
func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growTo extends the per-op slices to include pseudo op id.
func (a *Allocator) growTo(id int) {
	for len(a.scheduled) <= id {
		a.scheduled = append(a.scheduled, false)
		a.allocated = append(a.allocated, false)
		a.pBit = append(a.pBit, false)
		a.cBit = append(a.cBit, false)
		a.order = append(a.order, 0)
		a.base = append(a.base, 0)
		a.pending = append(a.pending, false)
		a.movedTo = append(a.movedTo, -1)
	}
}

// resolve follows AMOV moves to the op currently holding x's access range.
func (a *Allocator) resolve(x int) int {
	for a.movedTo[x] >= 0 {
		x = int(a.movedTo[x])
	}
	return x
}

// pushReady enqueues op x for allocation, preserving arrival order.
func (a *Allocator) pushReady(x int) {
	a.ready.Grow(x+1, a.readySeq+1)
	a.ready.Push(x, a.readySeq)
	a.readySeq++
}

// Schedule informs the allocator that op y is the next instruction in the
// schedule. It returns the ops to emit at this point, in order: any AMOVs
// inserted to break cycles, then y itself, then a rotate when registers
// were freed. The caller must place them exactly in that order. The
// returned slice is reused and only valid until the next Schedule call.
func (a *Allocator) Schedule(y *ir.Op) []*ir.Op {
	a.growTo(y.ID)
	if a.scheduled[y.ID] {
		panic(fmt.Sprintf("core: op %d scheduled twice", y.ID))
	}
	a.scheduled[y.ID] = true
	baseAtStart := a.nextOrder
	a.base[y.ID] = int32(baseAtStart)
	if a.opts.DisableRotation {
		// BASE never moves: offsets equal orders.
		a.base[y.ID] = 0
	}

	a.emit = a.emit[:0] // AMOVs first, then y, then a possible rotate
	if y.IsMem() {
		for _, d := range a.ds.ByDst(y.ID) {
			x := d.Src
			if !a.scheduled[x] {
				// Check-constraint x →check y: x will execute after y and
				// must check y's register (Figure 13 lines 9-12).
				a.cBit[x] = true
				if !a.pBit[y.ID] {
					a.pBit[y.ID] = true
					a.stats.PBits++
				}
				a.g.AddCheck(x, y.ID)
				a.rangeChecked[[2]int{x, y.ID}] = true
				a.liveChecks[[2]int{x, y.ID}] = true
				continue
			}
			// x executes before y: consider the anti-constraint preventing
			// y from checking x's register (Figure 13 lines 13-16). If an
			// AMOV already moved x's entry, the constraint applies to the
			// holder.
			if a.opts.DisableAnti {
				continue
			}
			xr := a.resolve(x)
			if a.allocated[xr] || !a.pBit[xr] || !a.cBit[y.ID] {
				continue // already satisfied, or no check can happen
			}
			if a.rangeChecked[[2]int{y.ID, x}] {
				continue // y legitimately checks x's range; cannot prohibit it
			}
			if _, dup := a.g.HasEdge(xr, y.ID); dup {
				continue
			}
			if a.g.TryAddAnti(xr, y.ID) {
				a.stats.Antis++
				a.liveAntis = append(a.liveAntis, [2]int{xr, y.ID})
				continue
			}
			// True cycle: break it with an AMOV just before y (§5.2).
			a.emit = append(a.emit, a.insertAMov(xr, y.ID))
		}
	}

	a.seq = append(a.seq, a.emit...)
	a.seq = append(a.seq, y)

	if y.IsMem() && (a.pBit[y.ID] || a.cBit[y.ID]) {
		a.stats.MemOps++ // memory ops that participate in alias detection
		if a.cBit[y.ID] {
			a.stats.CBits++
		}
		if a.g.InDegree(y.ID) == 0 {
			a.pushReady(y.ID)
		} else {
			a.pending[y.ID] = true
			a.pendingIDs = append(a.pendingIDs, int32(y.ID))
			if a.pBit[y.ID] {
				a.pendingP++
			}
		}
	} else if y.IsMem() {
		a.stats.MemOps++
	}

	a.drain()

	a.emit = append(a.emit, y)
	if a.nextOrder > baseAtStart && !a.opts.DisableRotation {
		rot := a.res.pseudo.newOp(ir.Op{
			ID:       a.nextPseudo,
			Kind:     ir.Rotate,
			Dst:      ir.NoVReg,
			Amount:   a.nextOrder - baseAtStart,
			AROffset: -1,
		})
		a.nextPseudo++
		a.seq = append(a.seq, rot)
		a.emit = append(a.emit, rot)
		a.stats.Rotates++
		a.stats.RotateTotal += rot.Amount
	}
	return a.emit
}

// insertAMov creates the AMOV pseudo-op that moves (or clears) x's alias
// register just before the op being scheduled (whose ID is yID), retargets
// x's pending checkers to the new register, and adds the anti-constraint
// protecting the moved range (Figure 13 lines 39-48).
func (a *Allocator) insertAMov(x, yID int) *ir.Op {
	xp := a.nextPseudo
	a.nextPseudo++
	a.growTo(xp)
	a.g.SetT(xp, a.g.T(yID)-1)

	moved := a.g.RetargetIncomingChecks(x, xp, func(src int) bool {
		return !a.scheduled[src]
	})
	op := a.res.pseudo.newOp(ir.Op{ID: xp, Kind: ir.AMov, Dst: ir.NoVReg, AROffset: -1})
	for len(a.amovs) <= xp-a.numOps {
		a.amovs = append(a.amovs, amovInfo{})
	}
	a.amovs[xp-a.numOps] = amovInfo{op: op, srcID: x, hasTarget: len(moved) > 0}
	a.scheduled[xp] = true
	a.base[xp] = int32(a.nextOrder)
	if a.opts.DisableRotation {
		a.base[xp] = 0
	}
	a.movedTo[x] = int32(xp)
	a.stats.AMovs++

	for _, z := range moved {
		delete(a.liveChecks, [2]int{z, x})
		a.liveChecks[[2]int{z, xp}] = true
	}

	if len(moved) > 0 {
		// The moved range will be checked later; it needs a register and
		// the anti-constraint so yID cannot check it.
		a.pBit[xp] = true
		a.stats.PBits++
		if !a.g.TryAddAnti(xp, yID) {
			// T(xp) = T(yID)-1 guarantees acceptance; a rejection means a
			// bookkeeping bug.
			panic("core: anti-constraint on fresh AMOV rejected")
		}
		a.stats.Antis++
		a.liveAntis = append(a.liveAntis, [2]int{xp, yID})
		a.pending[xp] = true
		a.pendingIDs = append(a.pendingIDs, int32(xp))
		a.pendingP++
	} else {
		a.stats.AMovCleanups++
	}

	// Retargeting may have unblocked x itself.
	a.maybeReady(x)
	return op
}

func (a *Allocator) maybeReady(x int) {
	if a.pending[x] && a.g.InDegree(x) == 0 {
		a.pending[x] = false
		if a.pBit[x] {
			a.pendingP--
		}
		a.pushReady(x)
	}
}

// drain allocates every ready op in FIFO order (Figure 13 lines 62-70):
// the queue is keyed by arrival sequence, so PopMin is the FIFO head.
func (a *Allocator) drain() {
	for {
		x, _, ok := a.ready.PopMin()
		if !ok {
			break
		}
		a.order[x] = int32(a.nextOrder)
		off := a.nextOrder - int(a.base[x])
		if off >= a.numRegs {
			a.overflow = true
		}
		if a.pBit[x] {
			a.nextOrder++
		}
		a.allocated[x] = true
		for _, z := range a.g.RemoveOut(x) {
			a.maybeReady(z)
		}
	}
}

// Pressure returns the conservative worst-case alias register demand if
// scheduling continues speculatively: allocated-but-live orders plus a
// register for every pending P op plus futureP potential setters, measured
// against the earliest base still pinned by a pending op (Figure 13's
// overflow estimate, lines 21-25). The scheduler compares it to the
// physical register count to pick speculation or non-speculation mode.
func (a *Allocator) Pressure(futureP int) int {
	maxOrder := a.nextOrder + a.pendingP + futureP
	// pendingIDs bases are monotone non-decreasing (each op's base is the
	// nextOrder at its scheduling, and nextOrder never decreases), so the
	// earliest pinned base is the first still-pending entry — found by
	// advancing the head past drained entries, O(1) amortized.
	for a.pendingHead < len(a.pendingIDs) && !a.pending[a.pendingIDs[a.pendingHead]] {
		a.pendingHead++
	}
	minBase := a.nextOrder
	if a.pendingHead < len(a.pendingIDs) {
		if b := int(a.base[a.pendingIDs[a.pendingHead]]); b < minBase {
			minBase = b
		}
	}
	return maxOrder - minBase
}

// NextOrder exposes the next order counter (tests and traces).
func (a *Allocator) NextOrder() int { return a.nextOrder }

// pendingCount counts ops still awaiting allocation (Finish's sanity
// check).
func (a *Allocator) pendingCount() int {
	n := 0
	for _, p := range a.pending {
		if p {
			n++
		}
	}
	return n
}

// Finish completes the allocation: every op must have been scheduled. It
// patches AROffset/P/C onto memory ops and SrcOff/DstOff onto AMOVs, and
// returns the result. An error is returned when an offset overflowed the
// physical register file — the caller must re-optimize less aggressively.
func (a *Allocator) Finish() (*Result, error) {
	if n := a.pendingCount() + a.ready.Len(); n != 0 {
		return nil, fmt.Errorf("core: %d ops still pending at Finish (constraint cycle not broken?)", n)
	}
	for _, op := range a.seq {
		switch {
		case op.IsMem():
			if a.allocated[op.ID] {
				op.AROffset = int(a.order[op.ID] - a.base[op.ID])
				op.P = a.pBit[op.ID]
				op.C = a.cBit[op.ID]
			}
		case op.Kind == ir.AMov:
			info := &a.amovs[op.ID-a.numOps]
			if !a.allocated[info.srcID] {
				return nil, fmt.Errorf("core: AMOV %d source op %d never allocated", op.ID, info.srcID)
			}
			op.SrcOff = int(a.order[info.srcID] - a.base[op.ID])
			if info.hasTarget {
				op.DstOff = int(a.order[op.ID] - a.base[op.ID])
			} else {
				op.DstOff = op.SrcOff
			}
			if op.SrcOff >= a.numRegs || op.DstOff >= a.numRegs || op.SrcOff < 0 {
				a.overflow = true
			}
		}
	}
	ws := 0
	res := a.res
	order := resizeInts(res.Order, len(a.scheduled))
	base := resizeInts(res.Base, len(a.scheduled))
	for id := range a.scheduled {
		order[id], base[id] = -1, -1
		if a.scheduled[id] {
			base[id] = int(a.base[id])
		}
		if a.allocated[id] {
			order[id] = int(a.order[id])
			if off := int(a.order[id]-a.base[id]) + 1; off > ws {
				ws = off
			}
		}
	}
	a.stats.WorkingSet = ws
	a.stats.Overflowed = a.overflow

	res.Seq = a.seq
	res.Order = order
	res.Base = base
	res.Stats = a.stats
	res.Stats.Checks = a.g.NumCheck
	res.Stats.Antis = a.g.NumAnti
	res.Checks = res.Checks[:0]
	for pair := range a.liveChecks {
		res.Checks = append(res.Checks, pair)
	}
	// Deterministic constraint listing regardless of map iteration order.
	slices.SortFunc(res.Checks, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	})
	res.Antis = a.liveAntis
	overflow, numRegs := a.overflow, a.numRegs
	// The constraint graph is pooled; it holds no state the Result needs.
	constraint.Put(a.g)
	a.g = nil
	// The allocator itself recycles too. Everything the Result references
	// (seq, antis and the dense order/base/checks) lives in the Result,
	// which recycles separately through its own Release, so allocator
	// reuse cannot clobber it.
	a.ds = nil
	a.seq = nil
	a.liveAntis = nil
	a.res = nil
	for i := range a.amovs {
		a.amovs[i].op = nil
	}
	allocPool.Put(a)
	if overflow {
		return res, fmt.Errorf("core: alias register overflow (working set %d > %d registers)", ws, numRegs)
	}
	return res, nil
}

// VerifyOrders confirms REGISTER-ALLOCATION-RULE on a finished result:
// order(src) ≤ order(dst) for every final check constraint and
// order(src) < order(dst) for every anti constraint. Tests call it; it is
// cheap enough to keep as a production assertion as well.
func VerifyOrders(res *Result) error {
	for _, c := range res.Checks {
		if !res.Allocated(c[0]) || !res.Allocated(c[1]) {
			return fmt.Errorf("core: check constraint %v references unallocated op", c)
		}
		if res.Order[c[0]] > res.Order[c[1]] {
			return fmt.Errorf("core: check constraint %v violated: order %d > %d", c, res.Order[c[0]], res.Order[c[1]])
		}
	}
	for _, c := range res.Antis {
		if !res.Allocated(c[0]) || !res.Allocated(c[1]) {
			return fmt.Errorf("core: anti constraint %v references unallocated op", c)
		}
		if res.Order[c[0]] >= res.Order[c[1]] {
			return fmt.Errorf("core: anti constraint %v violated: order %d >= %d", c, res.Order[c[0]], res.Order[c[1]])
		}
	}
	return nil
}
