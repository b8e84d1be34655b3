// Package aliashw models the alias-detection hardware variants the paper
// compares (Table 1): the order-based alias register queue SMARQ manages,
// an Itanium-like ALAT, a Transmeta-Efficeon-like bit-mask scheme, and a
// null detector.
package aliashw

import (
	"fmt"
	"math/bits"
)

// Conflict reports a detected alias: the op that performed the check and
// the op whose alias register it conflicted with (the "origin" travels
// with the register contents, including through AMOV moves, so the runtime
// can blacklist the right pair).
type Conflict struct {
	Checker, Origin int
}

// Detector is the runtime interface the VLIW consults on every memory
// operation of a translated region.
type Detector interface {
	// OnMem is called with the executing op's identity, kind, alias
	// annotations (P/C bits, register offset, and — for the bit-mask
	// hardware — the explicit check mask), and its runtime address range
	// [lo, hi). It returns a non-nil Conflict when an alias exception
	// must abort the region. For an op with both P and C the check
	// happens before the set (§3.1).
	OnMem(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) *Conflict
	// Rotate advances the queue BASE pointer (order-based only).
	Rotate(n int)
	// AMov moves the register at src to dst, or clears src when src==dst
	// (order-based only).
	AMov(src, dst int)
	// Reset clears all state (called at region commit and rollback): a
	// reset detector behaves exactly like a newly constructed one, apart
	// from Checked. That is what lets the dynopt runtime pool detectors
	// process-wide and lend one to each System.Run, as the paper's core
	// owns its alias register file and every atomic region starts with
	// it empty.
	Reset()
	// Checked returns the cumulative number of register comparisons the
	// hardware has performed — the energy proxy of §2.4 ("unnecessary
	// alias detections ... cost energy"). Reset does not clear it, so a
	// borrower that wants its own count takes the difference across its
	// loan.
	Checked() uint64
	// Name identifies the model in traces and tables.
	Name() string
}

// entry is one alias register. The two bools sit last so they share one
// padded word: 40 bytes, not 48 (TestEntrySize).
type entry struct {
	lo, hi  uint64
	origin  int
	order   int
	valid   bool
	byStore bool
}

func overlaps(aLo, aHi, bLo, bHi uint64) bool { return aLo < bHi && bLo < aHi }

// conflictRef turns an OnMemV result into OnMem's: nil without a hit, and
// a pointer to a copy of the conflict with one. Only a hit allocates.
func conflictRef(conf Conflict, hit bool) *Conflict {
	if !hit {
		return nil
	}
	c := conf
	return &c
}

// OrderedQueue is the order-based alias register queue of §2.4/§3: N
// physical registers organized as a circular queue with a rotating BASE.
// [ORDERED-ALIAS-DETECTION-RULE]: an executing op with the C bit checks
// every valid register whose order is not earlier than its own assigned
// order; loads do not check registers set by loads.
//
// A queue of at most 64 registers indexes its window with two bitmaps
// over window positions (bit k is the register of order base+k): live
// marks the positions holding a valid register and stores those set by a
// store. A check walks the set bits of live (and stores, for a load) at
// or above its offset with TrailingZeros, in the ascending order the
// scan used, so it compares exactly the registers the scan compared and
// Checked() counts the same. Rotate is a shift of both bitmaps and Reset
// clears them; a register whose bit is clear is dead whatever its slot
// still holds. Queues over 64 registers, and a queue from an AMov whose
// destination falls outside the window [0, N) (or a negative rotation)
// to its next Reset, run the scan over the physical slots instead (the
// *Scan methods): a register moved out of the window can come back into
// it by rotation, with an order only the scan's top bound describes.
type OrderedQueue struct {
	regs []entry
	base int
	// top is an exclusive upper bound, relative to base, on the order of
	// any valid in-window register: every valid entry e with
	// e.order >= base satisfies e.order < base+top. A check scan can
	// therefore stop at top instead of walking the whole file — scanning
	// beyond it would only visit empty or stale slots, which contribute
	// neither conflicts nor Checked() counts, so the early exit is
	// invisible in the simulated statistics. The bitmap path keeps it
	// exactly as the scan path does, so switching paths changes nothing.
	top int
	// phase is base modulo the register count: the physical slot of
	// window position 0 on the bitmap path.
	phase        int
	live, stores uint64
	// scan selects the physical-slot scan: set for a queue over 64
	// registers, and by toScan for the rest of a region.
	scan    bool
	checked uint64
}

// maxBitmapRegs is the largest queue whose window fits the bitmaps.
const maxBitmapRegs = 64

// NewOrderedQueue returns a queue with n physical alias registers.
func NewOrderedQueue(n int) *OrderedQueue {
	return &OrderedQueue{regs: make([]entry, n), scan: n > maxBitmapRegs}
}

// Name implements Detector.
func (q *OrderedQueue) Name() string { return fmt.Sprintf("ordered-%d", len(q.regs)) }

// NumRegs returns the physical register count.
func (q *OrderedQueue) NumRegs() int { return len(q.regs) }

func (q *OrderedQueue) slot(order int) *entry { return &q.regs[order%len(q.regs)] }

// at is the register at window position k (0 <= k < N) on the bitmap
// path.
func (q *OrderedQueue) at(k int) *entry {
	s := q.phase + k
	if s >= len(q.regs) {
		s -= len(q.regs)
	}
	return &q.regs[s]
}

// mark makes window position k live, set by a store or by a load.
func (q *OrderedQueue) mark(k int, byStore bool) {
	bit := uint64(1) << uint(k)
	q.live |= bit
	if byStore {
		q.stores |= bit
	} else {
		q.stores &^= bit
	}
}

// OnMem implements Detector.
func (q *OrderedQueue) OnMem(opID int, isStore, p, c bool, offset int, _ uint16, lo, hi uint64) *Conflict {
	return conflictRef(q.OnMemV(opID, isStore, p, c, offset, lo, hi))
}

// OnMemV is OnMem with the conflict returned by value: the no-conflict
// path (the overwhelmingly common one) performs no allocation, and a
// caller holding the concrete *OrderedQueue skips the interface dispatch
// entirely. The boolean reports whether a conflict was detected.
func (q *OrderedQueue) OnMemV(opID int, isStore, p, c bool, offset int, lo, hi uint64) (Conflict, bool) {
	if (p || c) && (offset < 0 || offset >= len(q.regs)) {
		panic(fmt.Sprintf("aliashw: op %d uses offset %d with %d registers", opID, offset, len(q.regs)))
	}
	if q.scan {
		return q.onMemScan(opID, isStore, p, c, offset, lo, hi)
	}
	if c && offset < q.top {
		cand := q.live >> uint(offset) << uint(offset)
		if !isStore {
			cand &= q.stores // loads do not check loads
		}
		for ; cand != 0; cand &= cand - 1 {
			e := q.at(bits.TrailingZeros64(cand))
			q.checked++
			if overlaps(lo, hi, e.lo, e.hi) {
				return Conflict{Checker: opID, Origin: e.origin}, true
			}
		}
	}
	if p {
		// Field by field: a composite literal is built on the stack and
		// copied in wide moves that stall on its narrow stores.
		e := q.at(offset)
		e.lo, e.hi, e.origin, e.order = lo, hi, opID, q.base+offset
		e.valid, e.byStore = true, isStore
		q.mark(offset, isStore)
		if offset+1 > q.top {
			q.top = offset + 1
		}
	}
	return Conflict{}, false
}

// onMemScan is OnMemV over the physical slots.
func (q *OrderedQueue) onMemScan(opID int, isStore, p, c bool, offset int, lo, hi uint64) (Conflict, bool) {
	if c && offset < q.top {
		// Walk physical slots incrementally (one modulo before the loop,
		// none inside) and stop at top, past which no valid in-window
		// register can live.
		n := len(q.regs)
		s := (q.base + offset) % n
		for k := offset; k < q.top; k++ {
			e := &q.regs[s]
			s++
			if s == n {
				s = 0
			}
			if !e.valid || e.order != q.base+k {
				continue
			}
			if !isStore && !e.byStore {
				continue // loads do not check loads
			}
			q.checked++
			if overlaps(lo, hi, e.lo, e.hi) {
				return Conflict{Checker: opID, Origin: e.origin}, true
			}
		}
	}
	if p {
		*q.slot(q.base + offset) = entry{
			valid: true, lo: lo, hi: hi, byStore: isStore,
			origin: opID, order: q.base + offset,
		}
		if offset+1 > q.top {
			q.top = offset + 1
		}
	}
	return Conflict{}, false
}

// toScan moves the queue to the scan path for the rest of the region:
// it clears every slot whose window bit is clear, so the slots hold
// exactly the valid registers the scan expects.
func (q *OrderedQueue) toScan() {
	if q.scan {
		return
	}
	for k := range q.regs {
		if q.live>>uint(k)&1 == 0 {
			*q.at(k) = entry{}
		}
	}
	q.scan = true
}

// Rotate implements Detector: the first n registers of the window are
// cleared and become free registers at the end of the queue (§3.2).
func (q *OrderedQueue) Rotate(n int) {
	if n < 0 {
		q.toScan()
	}
	if q.scan {
		q.rotateScan(n)
		return
	}
	q.live >>= uint(n)
	q.stores >>= uint(n)
	q.base += n
	q.phase = q.base % len(q.regs)
	q.top -= n
	if q.top < 0 {
		q.top = 0
	}
}

// rotateScan is Rotate over the physical slots.
func (q *OrderedQueue) rotateScan(n int) {
	for i := 0; i < n && i < len(q.regs); i++ {
		*q.slot(q.base + i) = entry{}
	}
	q.base += n
	// Orders are fixed at set time, so advancing BASE shifts every live
	// register's relative position down by n.
	q.top -= n
	if q.top < 0 {
		q.top = 0
	}
}

// AMov implements Detector (§3.3): the access range at offset src moves to
// offset dst; src==dst only cleans up.
func (q *OrderedQueue) AMov(src, dst int) {
	n := len(q.regs)
	if dst < 0 || dst >= n || q.base+src < 0 {
		q.toScan()
	}
	if q.scan {
		q.amovScan(src, dst)
		return
	}
	// src names the physical slot (base+src) mod N, the one at window
	// position src mod N.
	ks := src % n
	if ks < 0 {
		ks += n
	}
	bit := uint64(1) << uint(ks)
	live, byStore := q.live&bit != 0, q.stores&bit != 0
	q.live &^= bit
	q.stores &^= bit
	if src == dst || !live {
		return
	}
	e := *q.at(ks)
	e.order = q.base + dst
	*q.at(dst) = e
	q.mark(dst, byStore)
	if dst+1 > q.top {
		q.top = dst + 1
	}
}

// amovScan is AMov over the physical slots.
func (q *OrderedQueue) amovScan(src, dst int) {
	se := q.slot(q.base + src)
	e := *se
	*se = entry{}
	if src == dst || !e.valid {
		return
	}
	e.order = q.base + dst
	*q.slot(q.base + dst) = e
	if dst+1 > q.top {
		q.top = dst + 1
	}
	if q.top > len(q.regs) {
		// An out-of-window dst wraps physically but its order can never
		// match a scan position, exactly as before the top bound existed.
		q.top = len(q.regs)
	}
}

// Reset implements Detector. On the bitmap path it clears the bitmaps
// only: every slot is dead once its bit is, and the scan path is entered
// only through toScan, which clears the dead slots.
func (q *OrderedQueue) Reset() {
	if q.scan {
		clear(q.regs)
		q.scan = len(q.regs) > maxBitmapRegs
	}
	q.live, q.stores = 0, 0
	q.base, q.phase, q.top = 0, 0, 0
}

// Base exposes the BASE pointer for tests.
func (q *OrderedQueue) Base() int { return q.base }

// Checked implements Detector.
func (q *OrderedQueue) Checked() uint64 { return q.checked }

// ALAT is the Itanium-like detector (§2.3): advanced loads (P-bit loads in
// our encoding) record their ranges; every store checks *all* recorded
// ranges — the source of false positives — and stores never record, so
// store-store aliases are undetectable. Entries live until the region
// commits or aborts.
type ALAT struct {
	entries []entry
	checked uint64
}

// NewALAT returns an empty ALAT.
func NewALAT() *ALAT { return &ALAT{} }

// Name implements Detector.
func (a *ALAT) Name() string { return "alat" }

// OnMem implements Detector.
func (a *ALAT) OnMem(opID int, isStore, p, c bool, offset int, _ uint16, lo, hi uint64) *Conflict {
	return conflictRef(a.OnMemV(opID, isStore, p, c, lo, hi))
}

// OnMemV is the allocation-free concrete-type form of OnMem (see
// OrderedQueue.OnMemV).
func (a *ALAT) OnMemV(opID int, isStore, p, _ bool, lo, hi uint64) (Conflict, bool) {
	if isStore {
		for _, e := range a.entries {
			a.checked++
			if overlaps(lo, hi, e.lo, e.hi) {
				return Conflict{Checker: opID, Origin: e.origin}, true
			}
		}
		return Conflict{}, false
	}
	if p {
		a.entries = append(a.entries, entry{valid: true, lo: lo, hi: hi, origin: opID})
	}
	return Conflict{}, false
}

// Rotate implements Detector (no-op: the ALAT is not an ordered queue).
func (a *ALAT) Rotate(int) {}

// AMov implements Detector (no-op).
func (a *ALAT) AMov(int, int) {}

// Reset implements Detector.
func (a *ALAT) Reset() { a.entries = a.entries[:0] }

// Checked implements Detector.
func (a *ALAT) Checked() uint64 { return a.checked }

// None is the null detector: no alias hardware. The scheduler must not
// have speculated.
type None struct{}

// Name implements Detector.
func (None) Name() string { return "none" }

// OnMem implements Detector.
func (None) OnMem(int, bool, bool, bool, int, uint16, uint64, uint64) *Conflict { return nil }

// Rotate implements Detector.
func (None) Rotate(int) {}

// AMov implements Detector.
func (None) AMov(int, int) {}

// Reset implements Detector.
func (None) Reset() {}

// Checked implements Detector.
func (None) Checked() uint64 { return 0 }
