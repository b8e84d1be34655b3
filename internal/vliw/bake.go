package vliw

import (
	"fmt"
	"math"
	"math/bits"

	"smarq/internal/aliashw"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// Bake lowers the region, in place, into the form the host runs on alias
// hardware hw; it leaves the region's results unchanged. Three things
// change in the stream, and the region learns which vregs an entry must
// zero (readsBeforeWrites):
//
//   - Check lists. hw's model is run once over op identities
//     (aliashw.Evaluator): each memory op gets the ordered list of
//     earlier ops whose ranges it compares against, and an op that some
//     list names is marked as an origin that records its range.
//   - Folding. An add whose every reader is a memory op using the sum as
//     its base, and nothing else, leaves the stream: its readers compute
//     base + index + offset themselves. So does a muli by a power of two
//     whose every reader is such an add, which then contributes
//     index<<shift. The sum (product) must be neither a live-in nor a
//     live-out vreg, written only there, and no op between the folded op
//     and a reader may write the operands it reads.
//   - Rotates and AMOVs leave the stream: they act only on the alias
//     hardware, which the lists already account for.
//
// The dropped ops' schedule indices are kept, so an entry still reports
// how many schedule ops it retired. Bake panics on a region already baked.
func (cr *CompiledRegion) Bake(hw aliashw.HW) {
	if cr.baked {
		panic("vliw: region baked twice")
	}
	dec := cr.code
	lists, counts, origin := checkLists(dec, hw)
	plan := cr.planFolds(dec)

	slot := make([]int32, len(dec))
	kept := 0
	for i := range dec {
		if !plan[i].drop {
			kept++
		}
	}
	code := make([]decOp, 0, kept)
	var dropped []int32
	zero := int32(cr.NumVRegs)
	for i := range dec {
		if plan[i].drop {
			slot[i] = -1
			dropped = append(dropped, int32(i))
			continue
		}
		slot[i] = int32(len(code))
		d := dec[i]
		if d.xop.isMem() {
			d.src1, d.shift = zero, 0
			if f := &plan[i]; f.indexed {
				d.memBase, d.src1, d.shift = f.base, f.index, f.shift
			}
			n := counts[i]
			if n > math.MaxUint16 {
				panic(fmt.Sprintf("vliw: op %d checks %d registers", d.id, n))
			}
			d.arMask = uint16(n)
			d.setFlag(flagList, n != 0)
			d.setFlag(flagOrigin, origin[i])
		}
		code = append(code, d)
	}
	// The lists, in stream slots; a list of stores only gets flagStoreList
	// (its checker tests the store granules).
	pos := 0
	for i := range dec {
		if plan[i].drop || counts[i] == 0 {
			continue
		}
		stores := true
		for k := pos; k < pos+counts[i]; k++ {
			stores = stores && dec[lists[k]].xop.isStore()
			lists[k] = slot[lists[k]]
		}
		code[slot[i]].setFlag(flagStoreList, stores)
		pos += counts[i]
	}
	cr.code, cr.lists, cr.dropped = code, lists, dropped
	cr.hw, cr.baked = hw, true
	cr.arHW = int32(cr.arHighWater(len(code) - 1))
	cr.zeroInt, cr.zeroFloat = cr.readsBeforeWrites()
}

// readsBeforeWrites returns the integer and float vregs outside the
// live-ins that the baked stream, or a commit's write-back, reads before
// the stream writes them, in first-read order: what an entry must zero
// to read what fresh register files would hold.
func (cr *CompiledRegion) readsBeforeWrites() (ints, floats []int32) {
	nv := cr.NumVRegs + 1
	// seen marks a vreg written, or already listed: bit 0 the integer
	// file, bit 1 the float file.
	seen := make([]uint8, nv)
	for v := 0; v < guest.NumRegs && v < nv; v++ {
		seen[v] |= 1
	}
	for v := guest.NumRegs; v < 2*guest.NumRegs && v < nv; v++ {
		seen[v] |= 2
	}
	read := func(v int32, file uint8) {
		if v >= 0 && int(v) < nv && seen[v]&file == 0 {
			seen[v] |= file
			if file == 1 {
				ints = append(ints, v)
			} else {
				floats = append(floats, v)
			}
		}
	}
	for i := range cr.code {
		d := &cr.code[i]
		props := xopProps[d.xop]
		for _, v := range d.intReads() {
			read(v, 1)
		}
		if d.xop.isMem() {
			read(d.src1, 1) // the index
		}
		if props&floatSrc0 != 0 {
			read(d.src0, 2)
		}
		if props&floatSrc1 != 0 {
			read(d.src1, 2)
		}
		if v := d.dst; v >= 0 && int(v) < nv {
			if props&writesInt != 0 {
				seen[v] |= 1
			}
			if props&writesFloat != 0 {
				seen[v] |= 2
			}
		}
	}
	for m := cr.intLive; m != 0; m &= m - 1 {
		read(int32(cr.IntOut[bits.TrailingZeros32(m)]), 1)
	}
	for m := cr.floatLive; m != 0; m &= m - 1 {
		read(int32(cr.FloatOut[bits.TrailingZeros32(m)]), 2)
	}
	return ints, floats
}

// checkLists evaluates hw over the decoded stream: lists holds every
// memory op's check list as schedule indices, concatenated in schedule
// order, counts[i] is op i's list length, and origin[i] marks the ops
// some list names.
func checkLists(dec []decOp, hw aliashw.HW) (lists []int32, counts []int, origin []bool) {
	counts = make([]int, len(dec))
	origin = make([]bool, len(dec))
	ev := hw.Evaluator()
	for i := range dec {
		d := &dec[i]
		switch {
		case d.xop.isMem():
			l := ev.Mem(i, d.xop.isStore(), d.p(), d.c(), int(d.arOffset), d.arMask)
			for _, o := range l {
				origin[o] = true
			}
			lists = append(lists, l...)
			counts[i] = len(l)
		case d.xop == xRotate:
			ev.Rotate(d.rotateAmount())
		case d.xop == xAMov:
			ev.AMov(d.amovOffsets())
		}
	}
	return lists, counts, origin
}

// fold is the bake's plan for one schedule slot: drop it from the stream,
// or, for a memory op, take base + index<<shift as its address base.
type fold struct {
	drop    bool
	indexed bool
	shift   uint8
	base    int32
	index   int32
}

// intDst is the integer vreg d writes, or NoVReg.
func (d *decOp) intDst() int32 {
	if xopProps[d.xop]&writesInt != 0 {
		return d.dst
	}
	return int32(ir.NoVReg)
}

// intReads are the integer vregs d reads as src0, src1 and memory base,
// NoVReg where it reads none.
func (d *decOp) intReads() [3]int32 {
	r := [3]int32{int32(ir.NoVReg), int32(ir.NoVReg), int32(ir.NoVReg)}
	props := xopProps[d.xop]
	if props&(useSrc0|floatSrc0) == useSrc0 {
		r[0] = d.src0
	}
	if props&(useSrc1|floatSrc1) == useSrc1 {
		r[1] = d.src1
	}
	if props&useBase != 0 {
		r[2] = d.memBase
	}
	return r
}

// planFolds decides which adds and mulis fold into the memory ops that
// read them (see Bake), and drops the rotates and AMOVs.
func (cr *CompiledRegion) planFolds(dec []decOp) []fold {
	plan := make([]fold, len(dec))
	nv := int32(cr.NumVRegs)
	// writer[v] is the slot of v's one integer write, -1 for none and -2
	// for several; a vreg a commit writes back is never a temporary.
	writer := make([]int32, nv)
	for v := range writer {
		writer[v] = -1
	}
	for i := range dec {
		if v := dec[i].intDst(); v >= 0 && v < nv {
			if writer[v] == -1 {
				writer[v] = int32(i)
			} else {
				writer[v] = -2
			}
		}
	}
	for _, v := range cr.IntOut {
		if v >= 0 && int32(v) < nv {
			writer[v] = -2
		}
	}
	temp := func(v int32) bool { return v >= 2*guest.NumRegs && v < nv && writer[v] >= 0 }
	// written reports whether an op strictly between slots i and j writes
	// integer vreg v.
	written := func(v int32, i, j int) bool {
		for k := i + 1; k < j; k++ {
			if dec[k].intDst() == v {
				return true
			}
		}
		return false
	}
	// reads[start[v]:start[v+1]] are the slots that read integer vreg v,
	// ascending.
	start := make([]int32, nv+1)
	each := func(j int, f func(v int32)) {
		r := dec[j].intReads()
		for k, v := range r {
			if v >= 0 && v < nv && (k == 0 || v != r[0]) && (k < 2 || v != r[1]) {
				f(v)
			}
		}
	}
	for j := range dec {
		each(j, func(v int32) { start[v+1]++ })
	}
	for v := int32(0); v < nv; v++ {
		start[v+1] += start[v]
	}
	reads := make([]int32, start[nv])
	next := append([]int32(nil), start[:nv]...)
	for j := range dec {
		each(j, func(v int32) { reads[next[v]] = int32(j); next[v]++ })
	}
	// readers returns the slots that read integer vreg v, or nil when one
	// of them is at or before slot i.
	readers := func(v int32, i int) []int32 {
		rs := reads[start[v]:start[v+1]]
		if len(rs) == 0 || int(rs[0]) <= i {
			return nil
		}
		return rs
	}

	// Adds whose every reader is a memory op reading the sum as its base
	// only, with both operands unchanged up to each reader: mems[i] holds
	// folding add i's memory ops.
	mems := make([][]int32, len(dec))
	for i := range dec {
		d := &dec[i]
		if d.xop != xAdd || !temp(d.dst) || d.src0 == d.dst || d.src1 == d.dst {
			continue
		}
		rs := readers(d.dst, i)
		ok := len(rs) > 0
		for _, j := range rs {
			r := dec[j].intReads()
			ok = ok && dec[j].xop.isMem() && r[0] != d.dst && r[2] == d.dst &&
				!written(d.src0, i, int(j)) && !written(d.src1, i, int(j))
		}
		if ok {
			mems[i] = rs
		}
	}
	// Power-of-two mulis whose every reader is such an add, reading the
	// product as one operand, with the multiplicand unchanged up to each
	// of the add's memory ops.
	eligible := func(k int) bool {
		d := &dec[k]
		if d.xop != xMuli || d.imm <= 0 || d.imm&(d.imm-1) != 0 || !temp(d.dst) || d.src0 == d.dst {
			return false
		}
		rs := readers(d.dst, k)
		for _, i := range rs {
			f := &dec[i]
			if mems[i] == nil || (f.src0 == d.dst) == (f.src1 == d.dst) {
				return false
			}
			for _, j := range mems[i] {
				if written(d.src0, k, int(j)) {
					return false
				}
			}
		}
		return len(rs) > 0
	}
	// Each folding add takes the product of its second operand's muli if
	// that is eligible, else its first's; a muli folds when every add
	// reading it took it. An add whose muli stays reads the product.
	picked := make([]int, len(dec)) // folding add -> muli slot + 1
	takers := make([]int, len(dec)) // muli -> adds that took it
	for i := range dec {
		if d := &dec[i]; mems[i] != nil {
			for _, v := range [2]int32{d.src1, d.src0} {
				if temp(v) && eligible(int(writer[v])) {
					picked[i] = int(writer[v]) + 1
					takers[writer[v]]++
					break
				}
			}
		}
	}
	for i, rs := range mems {
		if rs == nil {
			continue
		}
		d := &dec[i]
		plan[i].drop = true
		f := fold{indexed: true, base: d.src0, index: d.src1}
		if k := picked[i] - 1; k >= 0 && takers[k] == len(readers(dec[k].dst, k)) {
			m := &dec[k]
			plan[k].drop = true
			f.index, f.shift = m.src0, uint8(bits.TrailingZeros64(uint64(m.imm)))
			if d.src0 == m.dst {
				f.base = d.src1
			}
		}
		for _, j := range rs {
			plan[j] = f
		}
	}
	for i := range dec {
		if x := dec[i].xop; x == xRotate || x == xAMov {
			plan[i].drop = true
		}
	}
	return plan
}

// scheduleIndex is the schedule index of stream slot n: n plus the
// dropped ops before it.
func (cr *CompiledRegion) scheduleIndex(n int) int {
	for _, d := range cr.dropped {
		if int(d) > n {
			break
		}
		n++
	}
	return n
}

// arHighWater is the alias-register high-water mark of an entry that
// ended at stream slot n: the highest register (+1) a P-bit memory op up
// to and including slot n claimed. An aborting memory op claimed its
// register before its check.
func (cr *CompiledRegion) arHighWater(n int) int {
	hw := int32(0)
	for i := range cr.code[:n+1] {
		if d := &cr.code[i]; d.xop.isMem() && d.p() && d.arOffset+1 > hw {
			hw = d.arOffset + 1
		}
	}
	return int(hw)
}
