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

// pair packs two 32-bit fields into one hashed word.
func pair(a, b int32) uint64 { return uint64(uint32(a))<<32 | uint64(uint32(b)) }

// flagBits packs a decoded op's narrow fields into one hashed word.
func (d *decOp) flagBits() uint64 {
	return uint64(d.arMask) | uint64(d.memSize)<<16 | uint64(d.kind)<<24 | uint64(d.gop)<<32 |
		uint64(d.flags)<<40 | uint64(d.xop)<<48
}

// Checksum returns the word-wise FNV-1a content hash (fnvWord) of the
// compiled region: every field of every decoded op (including the
// alias-register annotations and the fused opcode the executor trusts),
// the live-out maps and masks, the vreg count, the final target and the
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
	h = fnvInt(h, int64(len(cr.dec)))
	for i := range cr.dec {
		d := &cr.dec[i]
		h = fnvInt(h, d.imm)
		h = fnvWord(h, pair(d.id, d.dst))
		h = fnvWord(h, pair(d.src0, d.src1))
		h = fnvWord(h, pair(d.memBase, d.arOffset))
		h = fnvWord(h, d.flagBits())
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
// are positive. It is the second validation layer behind Checksum —
// corruption that predates the checksum stamp must fail here.
func (cr *CompiledRegion) Validate() error {
	if len(cr.dec) == 0 {
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
	for i := range cr.dec {
		d := &cr.dec[i]
		if !ok(d.dst) || !ok(d.src0) || !ok(d.src1) {
			return fmt.Errorf("vliw: schedule slot %d: vreg out of range [0,%d) (dst v%d, srcs v%d v%d)",
				i, nv, d.dst, d.src0, d.src1)
		}
		if x := fuse(d.kind, d.gop, d.memSize, d.flags); x == xBad || x != d.xop {
			return fmt.Errorf("vliw: schedule slot %d: fused opcode %v, but a %v op with opcode %s, a %d-byte access and flags %05b decodes to %v",
				i, d.xop, d.kind, d.gop, d.memSize, d.flags, x)
		}
		use := xopProps[d.xop]
		if use&useDst != 0 && !set(d.dst) || use&useSrc0 != 0 && !set(d.src0) ||
			use&useSrc1 != 0 && !set(d.src1) || use&useBase != 0 && !set(d.memBase) {
			return fmt.Errorf("vliw: schedule slot %d: %v op without an operand it uses (dst v%d, srcs v%d v%d, base v%d)",
				i, d.kind, d.dst, d.src0, d.src1, d.memBase)
		}
		ints, floats := d.liveInWrites()
		intWritten |= ints
		floatWritten |= floats
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

// Corrupt damages the compiled region in place, for host-fault injection.
// structural writes an out-of-range destination vreg into the middle op,
// which Validate rejects; otherwise it flips bits of the first op's
// operand word (imm), a field Validate does not constrain, so only a
// Checksum comparison can catch it.
func (cr *CompiledRegion) Corrupt(structural bool) {
	if structural {
		cr.dec[len(cr.dec)/2].dst = int32(cr.NumVRegs + 1<<16)
		return
	}
	cr.dec[0].imm ^= 0x5a5a5a5a
}
