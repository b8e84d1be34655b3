// Package aliashw models the alias-detection hardware variants the paper
// compares (Table 1): the order-based alias register queue SMARQ manages,
// an Itanium-like ALAT, a Transmeta-Efficeon-like bit-mask scheme, and a
// null detector.
package aliashw

import "fmt"

// Conflict reports a detected alias: the op that performed the check and
// the op whose alias register it conflicted with (the "origin" travels
// with the register contents, including through AMOV moves, so the runtime
// can blacklist the right pair).
type Conflict struct {
	Checker, Origin int
}

// Detector is the address-level model of one alias hardware: what the
// hardware does on each memory operation of a translated region, given
// the operation's runtime address. The region executor does not call it:
// a region is baked for its detector's hardware (HW) into per-op check
// lists (Evaluator), and the executor walks those. The models remain the
// reference the baked lists are tested against, and the behavioural
// probes of Table 1.
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
	// from Checked, as every atomic region finds the paper's alias
	// register file empty.
	Reset()
	// Checked returns the cumulative number of register comparisons the
	// hardware has performed — the energy proxy of §2.4 ("unnecessary
	// alias detections ... cost energy"). Reset does not clear it.
	Checked() uint64
	// Name identifies the model in traces and tables.
	Name() string
	// HW names the hardware the detector models: what a region executed
	// against it is baked for.
	HW() HW
}

// Kind is an alias hardware family.
type Kind uint8

const (
	// KindNone is no alias hardware (None).
	KindNone Kind = iota
	// KindOrdered is the order-based queue SMARQ manages (OrderedQueue).
	KindOrdered
	// KindALAT is the Itanium-like table (ALAT).
	KindALAT
	// KindBitmask is the Efficeon-like bit-mask file (Bitmask).
	KindBitmask
)

// HW identifies alias hardware: its family and, for the ordered queue
// and the bit-mask file, its register count. Two detectors of one HW
// behave identically, so a region baked for one runs for the other.
type HW struct {
	Kind Kind
	Regs int
}

// model returns a fresh detector of h.
func (h HW) model() model {
	switch h.Kind {
	case KindOrdered:
		return NewOrderedQueue(h.Regs)
	case KindALAT:
		return NewALAT()
	case KindBitmask:
		return NewBitmask(h.Regs)
	}
	return None{}
}

// model is a detector's hardware behind OnMem. access is the hardware's
// response to one memory op: it visits, in the order the hardware
// compares them, the registers the op checks, and stops when visit
// returns true (a conflict, which ends the region entry); otherwise it
// then records the op's range [lo, hi) with origin opID if the op sets a
// register. OnMem compares addresses in visit; the Evaluator
// collects origins instead, so both run the same hardware.
type model interface {
	Detector
	access(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64, visit func(*entry) bool)
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

// detect is OnMem over a model: every register the access visits is one
// comparison counted into checked, and the first one whose range overlaps
// [lo, hi) is the conflict.
func detect(m model, checked *uint64, opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) *Conflict {
	var conf *Conflict
	m.access(opID, isStore, p, c, offset, mask, lo, hi, func(e *entry) bool {
		*checked++
		if overlaps(lo, hi, e.lo, e.hi) {
			conf = &Conflict{Checker: opID, Origin: e.origin}
			return true
		}
		return false
	})
	return conf
}

// Evaluator runs a hardware model over op identities instead of
// addresses: the bake-time form of the hardware. A region runs a prefix
// of its schedule and every detector starts each entry empty, so which
// earlier ops a memory op compares against, and in which order, is fixed
// by the schedule; only the addresses are dynamic. Feeding the evaluator
// a region's ops in schedule order yields each memory op's check list.
type Evaluator struct {
	m       model
	list    []int32
	collect func(*entry) bool
}

// Evaluator returns an evaluator over a fresh model of h.
func (h HW) Evaluator() *Evaluator {
	ev := &Evaluator{m: h.model()}
	ev.collect = func(e *entry) bool {
		ev.list = append(ev.list, int32(e.origin))
		return false
	}
	return ev
}

// Mem is the hardware's response to memory op op, an index the caller
// chooses: it returns the ops (as the indices earlier Mem calls passed)
// whose registers op compares against, in the order the hardware compares
// them, and records op as the origin of the register it sets, if any. No
// comparison conflicts — a conflict ends the region entry, so nothing
// after it is evaluated. The slice is valid until the next call.
func (ev *Evaluator) Mem(op int, isStore, p, c bool, offset int, mask uint16) []int32 {
	ev.list = ev.list[:0]
	ev.m.access(op, isStore, p, c, offset, mask, 0, 0, ev.collect)
	return ev.list
}

// Rotate is the hardware's rotation (order-based only).
func (ev *Evaluator) Rotate(n int) { ev.m.Rotate(n) }

// AMov is the hardware's AMOV (order-based only).
func (ev *Evaluator) AMov(src, dst int) { ev.m.AMov(src, dst) }

// OrderedQueue is the order-based alias register queue of §2.4/§3: N
// physical registers organized as a circular queue with a rotating BASE.
// [ORDERED-ALIAS-DETECTION-RULE]: an executing op with the C bit checks
// every valid register whose order is not earlier than its own assigned
// order; loads do not check registers set by loads. A check walks the
// window positions from its offset up, in ascending order, over the
// physical slots; a slot counts only if it holds a valid register of
// exactly that position's order, so a register an AMov moved outside the
// window [0, N) is seen only once rotation brings its order back into it.
type OrderedQueue struct {
	regs []entry
	base int
	// top is an exclusive upper bound, relative to base, on the order of
	// any valid in-window register: every valid entry e with
	// e.order >= base satisfies e.order < base+top. A check can
	// therefore stop at top instead of walking the whole file — walking
	// beyond it would only visit empty or stale slots, which contribute
	// neither conflicts nor Checked() counts, so the early exit is
	// invisible in the simulated statistics.
	top     int
	checked uint64
}

// NewOrderedQueue returns a queue with n physical alias registers.
func NewOrderedQueue(n int) *OrderedQueue {
	return &OrderedQueue{regs: make([]entry, n)}
}

// Name implements Detector.
func (q *OrderedQueue) Name() string { return fmt.Sprintf("ordered-%d", len(q.regs)) }

// HW implements Detector.
func (q *OrderedQueue) HW() HW { return HW{Kind: KindOrdered, Regs: len(q.regs)} }

// NumRegs returns the physical register count.
func (q *OrderedQueue) NumRegs() int { return len(q.regs) }

func (q *OrderedQueue) slot(order int) *entry { return &q.regs[order%len(q.regs)] }

// OnMem implements Detector.
func (q *OrderedQueue) OnMem(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) *Conflict {
	return detect(q, &q.checked, opID, isStore, p, c, offset, mask, lo, hi)
}

func (q *OrderedQueue) access(opID int, isStore, p, c bool, offset int, _ uint16, lo, hi uint64, visit func(*entry) bool) {
	if (p || c) && (offset < 0 || offset >= len(q.regs)) {
		panic(fmt.Sprintf("aliashw: op %d uses offset %d with %d registers", opID, offset, len(q.regs)))
	}
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
			if visit(e) {
				return
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
}

// Rotate implements Detector: the first n registers of the window are
// cleared and become free registers at the end of the queue (§3.2).
func (q *OrderedQueue) Rotate(n int) {
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
		// match a check position, exactly as before the top bound existed.
		q.top = len(q.regs)
	}
}

// Reset implements Detector.
func (q *OrderedQueue) Reset() {
	clear(q.regs)
	q.base, q.top = 0, 0
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

// HW implements Detector.
func (a *ALAT) HW() HW { return HW{Kind: KindALAT} }

// OnMem implements Detector.
func (a *ALAT) OnMem(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) *Conflict {
	return detect(a, &a.checked, opID, isStore, p, c, offset, mask, lo, hi)
}

func (a *ALAT) access(opID int, isStore, p, _ bool, _ int, _ uint16, lo, hi uint64, visit func(*entry) bool) {
	if isStore {
		for i := range a.entries {
			if visit(&a.entries[i]) {
				return
			}
		}
		return
	}
	if p {
		a.entries = append(a.entries, entry{valid: true, lo: lo, hi: hi, origin: opID})
	}
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

// HW implements Detector.
func (None) HW() HW { return HW{} }

// OnMem implements Detector.
func (None) OnMem(int, bool, bool, bool, int, uint16, uint64, uint64) *Conflict { return nil }

func (None) access(int, bool, bool, bool, int, uint16, uint64, uint64, func(*entry) bool) {}

// Rotate implements Detector.
func (None) Rotate(int) {}

// AMov implements Detector.
func (None) AMov(int, int) {}

// Reset implements Detector.
func (None) Reset() {}

// Checked implements Detector.
func (None) Checked() uint64 { return 0 }
