package aliashw

import "math/bits"

// Bitmask is the Transmeta-Efficeon-like scheme (§2.2): each memory
// operation may set one alias register and name the individual registers
// it checks through a bit-mask encoded in the instruction. The encoding
// space bounds the register count — Efficeon cannot support more than 15
// registers — which is the scalability limit Table 1 reports.
//
// The dynamic optimization pipeline in this repository drives the ordered
// queue; Bitmask exists for the Table 1 behavioural probes and as a
// reference model: precise (no false positives) and store-capable, but not
// scalable.
type Bitmask struct {
	regs []entry
	// valid has bit r set iff register r holds a range; a register whose
	// bit is clear is empty whatever its slot still holds.
	valid   uint16
	checked uint64
}

// MaxBitmaskRegs is the encoding-space limit on the register file size.
const MaxBitmaskRegs = 15

// NewBitmask returns a bit-mask detector with n registers, capped at the
// encoding limit.
func NewBitmask(n int) *Bitmask {
	if n > MaxBitmaskRegs {
		n = MaxBitmaskRegs
	}
	return &Bitmask{regs: make([]entry, n)}
}

// Name identifies the model.
func (b *Bitmask) Name() string { return "bitmask" }

// HW implements Detector.
func (b *Bitmask) HW() HW { return HW{Kind: KindBitmask, Regs: len(b.regs)} }

// NumRegs returns the register count.
func (b *Bitmask) NumRegs() int { return len(b.regs) }

// Set records the executing op's range in register r.
func (b *Bitmask) Set(opID int, isStore bool, r int, lo, hi uint64) {
	e := &b.regs[r] // field by field, as in OrderedQueue.OnMemV
	e.lo, e.hi, e.origin, e.order = lo, hi, opID, 0
	e.valid, e.byStore = true, isStore
	b.valid |= 1 << uint(r)
}

// Check tests the registers selected by mask against [lo, hi) and returns
// a conflict if any overlaps. Only the registers named in the mask are
// examined — the precision Efficeon buys with encoding bits.
func (b *Bitmask) Check(opID int, mask uint16, lo, hi uint64) *Conflict {
	return b.OnMem(opID, false, false, true, 0, mask, lo, hi)
}

// Reset clears all registers.
func (b *Bitmask) Reset() { b.valid = 0 }

// OnMem implements Detector: a C op checks the registers its mask names
// (check before set), then a P op records its range in register offset.
func (b *Bitmask) OnMem(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) *Conflict {
	return detect(b, &b.checked, opID, isStore, p, c, offset, mask, lo, hi)
}

func (b *Bitmask) access(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64, visit func(*entry) bool) {
	if c {
		// Walk the named registers that hold a range, lowest first.
		for m := mask & b.valid; m != 0; m &= m - 1 {
			if visit(&b.regs[bits.TrailingZeros16(m)]) {
				return
			}
		}
	}
	if p {
		if offset < 0 || offset >= len(b.regs) {
			panic("aliashw: bitmask set register out of range")
		}
		b.Set(opID, isStore, offset, lo, hi)
	}
}

// Rotate implements Detector (no-op: the bit-mask file does not rotate).
func (b *Bitmask) Rotate(int) {}

// AMov implements Detector (no-op).
func (b *Bitmask) AMov(int, int) {}

// Checked implements Detector.
func (b *Bitmask) Checked() uint64 { return b.checked }
