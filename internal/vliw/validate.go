// Install-time result validation: a content checksum over the decoded
// compile result plus structural invariant checks, so a corrupted
// ("poisoned") compile — a host bug, a bad worker, an injected fault —
// is rejected at the install point instead of dispatched. The checksum
// is stamped on the worker right after the pipeline finishes and
// recomputed on the simulation thread at install; the structural check
// catches corruption that happened before the stamp (a consistent hash
// over broken contents proves nothing). Both read exactly what Execute
// trusts: the decoded stream and the commit-time register mapping.
package vliw

import (
	"fmt"
	"slices"

	"smarq/internal/guest"
	"smarq/internal/ir"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds one 64-bit word into the hash, FNV-1a style but a word
// at a time: h = (h ^ v) * prime. Both steps are bijections of h (the
// prime is odd), so a change to any single hashed word always changes
// the final sum.
func fnvWord(h, v uint64) uint64 { return (h ^ v) * fnvPrime64 }

func fnvInt(h uint64, v int64) uint64 { return fnvWord(h, uint64(v)) }

// bakedBit is 1 for a baked region.
func (cr *CompiledRegion) bakedBit() int32 {
	if cr.baked {
		return 1
	}
	return 0
}

// pair packs two 32-bit fields into one hashed word.
func pair(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// flagBits packs a decoded op's narrow fields into one hashed word.
func (d *decOp) flagBits() uint64 {
	return uint64(d.arMask) | uint64(d.memSize)<<16 | uint64(d.kind)<<24 | uint64(d.gop)<<32 |
		uint64(d.flags)<<40 | uint64(d.xop)<<48 | uint64(d.shift)<<56
}

// Checksum returns the word-wise FNV-1a content hash (fnvWord) of the
// compiled region: every field of every op of its stream (including the
// alias-register annotations and the fused opcode the executor trusts),
// the check lists, the dropped ops, the hardware it is baked for, the
// live-out maps and masks, the vreg count, the final target and the
// precomputed cycle cost. A decoded op's packed operand word and flags
// byte are hashed as stored, so every bit is covered whatever the op's
// kind makes it mean. Any single-field corruption changes the hash.
func (cr *CompiledRegion) Checksum() uint64 {
	h := uint64(fnvOffset64)
	h = fnvInt(h, cr.Cycles)
	h = fnvInt(h, int64(cr.GuestInsts))
	h = fnvInt(h, int64(cr.NumVRegs))
	h = fnvInt(h, int64(cr.FinalTarget))
	for r := 0; r < guest.NumRegs; r++ {
		h = fnvWord(h, pair(int32(cr.IntOut[r]), int32(cr.FloatOut[r])))
	}
	h = fnvWord(h, pair(int32(cr.intLive), int32(cr.floatLive)))
	h = fnvWord(h, pair(int32(cr.hw.Kind), int32(cr.hw.Regs)))
	h = fnvWord(h, pair(int32(cr.arHW), cr.bakedBit()))
	h = fnvInt(h, int64(len(cr.code)))
	for i := range cr.code {
		d := &cr.code[i]
		h = fnvInt(h, d.imm)
		h = fnvWord(h, pair(d.id, d.dst))
		h = fnvWord(h, pair(d.src0, d.src1))
		h = fnvWord(h, pair(d.memBase, d.arOffset))
		h = fnvWord(h, d.flagBits())
	}
	for _, l := range [...][]int32{cr.lists, cr.dropped, cr.zeroInt, cr.zeroFloat} {
		h = fnvInt(h, int64(len(l)))
		for _, v := range l {
			h = fnvInt(h, int64(v))
		}
	}
	return h
}

// Validate checks the structural invariants a dispatchable compile result
// must satisfy for Execute to run it without indexing out of bounds or
// reaching its default arm: the schedule is non-empty, the vreg files
// hold the live-ins, every op's fused opcode is the one its kind, guest
// opcode, access width and register-file flags decode to, every vreg a
// decoded op or a live-out map names is in range, every operand its
// fused opcode uses is present, the live-out masks are the ones the
// stream and maps imply, and the cycle cost and guest instruction count
// are positive. A baked region must also hold only ops the host runs,
// and check lists that name earlier origins (stores only, for a list the
// store granules screen) and add up to the stored lists; its dropped
// indices must ascend within the schedule, and its high-water mark be the
// stream's, and its vregs to zero the ones the stream reads before it
// writes them. It is the second validation layer behind Checksum —
// corruption that predates the checksum stamp must fail here.
func (cr *CompiledRegion) Validate() error {
	if len(cr.code) == 0 {
		return fmt.Errorf("vliw: empty schedule")
	}
	if cr.NumVRegs < 2*guest.NumRegs {
		return fmt.Errorf("vliw: %d vregs cannot hold the %d live-in registers", cr.NumVRegs, 2*guest.NumRegs)
	}
	if cr.Cycles <= 0 {
		return fmt.Errorf("vliw: nonpositive cycle cost %d", cr.Cycles)
	}
	if cr.GuestInsts <= 0 {
		return fmt.Errorf("vliw: nonpositive guest instruction count %d", cr.GuestInsts)
	}
	nv := uint32(cr.NumVRegs)
	// ok reports whether v is absent (NoVReg) or names a vreg in range;
	// set additionally requires it present.
	ok := func(v int32) bool { return v == int32(ir.NoVReg) || uint32(v) < nv }
	set := func(v int32) bool { return uint32(v) < nv }
	var intWritten, floatWritten uint32
	pos := 0
	for i := range cr.code {
		d := &cr.code[i]
		// A baked memory op's index may be the zero vreg, one past the
		// region's.
		index := cr.baked && d.xop.isMem()
		if !ok(d.dst) || !ok(d.src0) || !ok(d.src1) && !(index && uint32(d.src1) == nv) {
			return fmt.Errorf("vliw: schedule slot %d: vreg out of range [0,%d) (dst v%d, srcs v%d v%d)",
				i, nv, d.dst, d.src0, d.src1)
		}
		if x := fuse(d.kind, d.gop, d.memSize, d.flags); x == xBad || x != d.xop {
			return fmt.Errorf("vliw: schedule slot %d: fused opcode %v, but a %v op with opcode %s, a %d-byte access and flags %08b decodes to %v",
				i, d.xop, d.kind, d.gop, d.memSize, d.flags, x)
		}
		use := xopProps[d.xop]
		if use&useDst != 0 && !set(d.dst) || use&useSrc0 != 0 && !set(d.src0) ||
			use&useSrc1 != 0 && !set(d.src1) || use&useBase != 0 && !set(d.memBase) {
			return fmt.Errorf("vliw: schedule slot %d: %v op without an operand it uses (dst v%d, srcs v%d v%d, base v%d)",
				i, d.kind, d.dst, d.src0, d.src1, d.memBase)
		}
		if err := cr.validateAlias(i, &pos); err != nil {
			return err
		}
		ints, floats := d.liveInWrites()
		intWritten |= ints
		floatWritten |= floats
	}
	if pos != len(cr.lists) {
		return fmt.Errorf("vliw: the check lists hold %d origins, the stream's lists %d", len(cr.lists), pos)
	}
	if !cr.baked && (len(cr.dropped) != 0 || cr.arHW != 0 || len(cr.zeroInt) != 0 || len(cr.zeroFloat) != 0) {
		return fmt.Errorf("vliw: a region not baked has dropped ops, vregs to zero or a high-water mark")
	}
	for k, s := range cr.dropped {
		if s < 0 || int(s) >= cr.Ops() || k > 0 && s <= cr.dropped[k-1] {
			return fmt.Errorf("vliw: dropped op %d at schedule index %d is out of order or range", k, s)
		}
	}
	if cr.baked {
		if hw := cr.arHighWater(len(cr.code) - 1); int32(hw) != cr.arHW {
			return fmt.Errorf("vliw: high-water mark %d, the stream's is %d", cr.arHW, hw)
		}
		if ints, floats := cr.readsBeforeWrites(); !slices.Equal(ints, cr.zeroInt) || !slices.Equal(floats, cr.zeroFloat) {
			return fmt.Errorf("vliw: vregs to zero %v/%v, the stream reads %v/%v before writing them",
				cr.zeroInt, cr.zeroFloat, ints, floats)
		}
	}
	for r := 0; r < guest.NumRegs; r++ {
		if v := int32(cr.IntOut[r]); !set(v) {
			return fmt.Errorf("vliw: live-out int r%d maps to v%d out of range", r, v)
		}
		if v := int32(cr.FloatOut[r]); !set(v) {
			return fmt.Errorf("vliw: live-out float f%d maps to v%d out of range", r, v)
		}
	}
	if ints, floats := liveOutMasks(&cr.IntOut, &cr.FloatOut, intWritten, floatWritten); ints != cr.intLive || floats != cr.floatLive {
		return fmt.Errorf("vliw: live-out masks %#x/%#x, the stream implies %#x/%#x", cr.intLive, cr.floatLive, ints, floats)
	}
	return nil
}

// validateAlias checks slot i's bake fields: before the bake, none are
// set; after it, rotates and AMOVs are gone, only memory ops carry alias
// flags or a shift, and a checking op's list — starting at *pos, which
// it advances — names only earlier origins, all stores if its flag says
// so.
func (cr *CompiledRegion) validateAlias(i int, pos *int) error {
	d := &cr.code[i]
	const bakeFlags = flagOrigin | flagList | flagStoreList
	switch {
	case !cr.baked:
		if d.flags&bakeFlags != 0 || d.shift != 0 {
			return fmt.Errorf("vliw: schedule slot %d: bake fields set on a region not baked", i)
		}
		return nil
	case d.xop == xRotate || d.xop == xAMov:
		return fmt.Errorf("vliw: schedule slot %d: %v op in a baked stream", i, d.xop)
	case !d.xop.isMem():
		if d.flags&bakeFlags != 0 || d.shift != 0 {
			return fmt.Errorf("vliw: schedule slot %d: %v op with alias flags %08b or shift %d", i, d.xop, d.flags, d.shift)
		}
		return nil
	}
	n := int(d.arMask)
	if d.shift > 63 || (d.flags&flagList != 0) != (n != 0) || d.flags&flagStoreList != 0 && n == 0 {
		return fmt.Errorf("vliw: schedule slot %d: shift %d, flags %08b and a %d-origin list disagree", i, d.shift, d.flags, n)
	}
	if *pos+n > len(cr.lists) {
		return fmt.Errorf("vliw: schedule slot %d: check list past the %d stored origins", i, len(cr.lists))
	}
	for _, o := range cr.lists[*pos : *pos+n] {
		if o < 0 || int(o) >= i || cr.code[o].flags&flagOrigin == 0 ||
			d.flags&flagStoreList != 0 && !cr.code[o].xop.isStore() {
			return fmt.Errorf("vliw: schedule slot %d: check list names slot %d, not an earlier origin of its kind", i, o)
		}
	}
	*pos += n
	return nil
}

// Corrupt damages the compiled region in place, for host-fault injection.
// structural breaks an invariant Validate checks: it names a slot past
// the stream as the first origin of the first check list, when the region
// has one — an entry that runs that check's walk, which takes a real
// alias, indexes out of range — and otherwise writes an out-of-range
// destination vreg into the middle op. Otherwise it flips bits of the
// first op's operand word (imm), a field Validate does not constrain, so
// only a Checksum comparison can catch it.
func (cr *CompiledRegion) Corrupt(structural bool) {
	switch {
	case structural && len(cr.lists) != 0:
		cr.lists[0] = int32(len(cr.code) + 1<<16)
		return
	case structural:
		cr.code[len(cr.code)/2].dst = int32(cr.NumVRegs + 1<<16)
		return
	}
	cr.code[0].imm ^= 0x5a5a5a5a
}
