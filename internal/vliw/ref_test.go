package vliw

import (
	"fmt"
	"math"

	"smarq/internal/aliashw"
	"smarq/internal/atomic"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// vregFile holds the region's virtual register values during execution.
type vregFile struct {
	i []int64
	f []float64
}

// executeRef is the original *ir.Op-walking executor, kept as the
// reference semantics for the baked engine in exec.go: the differential
// test drives both on the same schedules and requires bit-identical
// outcomes. It runs the scheduled IR directly (seq and its region) against
// the address-level detector det, every rotate and AMOV included, and
// allocates per entry (vreg files, checkpoint, undo log). Its
// ARHighWater, StoresBuffered and Checked (det's comparisons during the
// entry) are the baked engine's references too.
func executeRef(seq []*ir.Op, reg *ir.Region, st *guest.State, mem *guest.Memory, det aliashw.Detector) ExecResult {
	vr := vregFile{i: make([]int64, reg.NumVRegs), f: make([]float64, reg.NumVRegs)}
	for r := 0; r < guest.NumRegs; r++ {
		vr.i[ir.LiveInInt(guest.Reg(r))] = st.R[r]
		vr.f[ir.LiveInFloat(guest.Reg(r))] = st.F[r]
	}

	ar := atomic.Begin(st, mem)
	checked0 := det.Checked()
	hw := 0
	abort := func(out Outcome, conf *aliashw.Conflict, n int) ExecResult {
		stores := ar.StoreCount()
		ar.Rollback()
		det.Reset()
		return ExecResult{Outcome: out, Conflict: conf, OpsExecuted: n, ARHighWater: hw,
			StoresBuffered: stores, Checked: int(det.Checked() - checked0)}
	}

	for n, op := range seq {
		if op.IsMem() && op.P && op.AROffset+1 > hw {
			hw = op.AROffset + 1
		}
		switch op.Kind {
		case ir.Arith:
			execArith(op, &vr)

		case ir.Copy:
			if op.DstFloat {
				vr.f[op.Dst] = vr.f[op.Srcs[0]]
			} else {
				vr.i[op.Dst] = vr.i[op.Srcs[0]]
			}

		case ir.Load:
			addr := uint64(vr.i[op.Mem.Base] + op.Mem.Off)
			size := op.Mem.Size
			if conf := det.OnMem(op.ID, false, op.P, op.C, op.AROffset, op.ARMask, addr, addr+uint64(size)); conf != nil {
				return abort(AliasException, conf, n)
			}
			bits, err := mem.Load(addr, size)
			if err != nil {
				return abort(Fault, nil, n)
			}
			if op.DstFloat {
				vr.f[op.Dst] = math.Float64frombits(bits)
			} else {
				vr.i[op.Dst] = int64(bits)
			}

		case ir.Store:
			addr := uint64(vr.i[op.Mem.Base] + op.Mem.Off)
			size := op.Mem.Size
			if conf := det.OnMem(op.ID, true, op.P, op.C, op.AROffset, op.ARMask, addr, addr+uint64(size)); conf != nil {
				return abort(AliasException, conf, n)
			}
			var bits uint64
			if op.SrcFloat[0] {
				bits = math.Float64bits(vr.f[op.Srcs[0]])
			} else {
				bits = uint64(vr.i[op.Srcs[0]])
			}
			if err := ar.Store(addr, size, bits); err != nil {
				return abort(Fault, nil, n)
			}

		case ir.Guard:
			if evalGuard(op, &vr) != op.OnTraceTaken {
				return abort(GuardFail, nil, n)
			}

		case ir.Rotate:
			det.Rotate(op.Amount)

		case ir.AMov:
			det.AMov(op.SrcOff, op.DstOff)

		default:
			panic(fmt.Sprintf("vliw: cannot execute op kind %v", op.Kind))
		}
	}

	// Commit: write the live-out virtual registers back to the guest
	// state, make the stores permanent, clear the detector.
	for r := 0; r < guest.NumRegs; r++ {
		st.R[r] = vr.i[reg.IntOut[r]]
		st.F[r] = vr.f[reg.FloatOut[r]]
	}
	stores := ar.StoreCount()
	ar.Commit()
	det.Reset()
	return ExecResult{Outcome: Commit, NextBlock: reg.FinalTarget, OpsExecuted: len(seq), ARHighWater: hw,
		StoresBuffered: stores, Checked: int(det.Checked() - checked0)}
}

// execArith evaluates a register-to-register op on the vreg file,
// mirroring guest.Exec semantics.
func execArith(op *ir.Op, vr *vregFile) {
	i := vr.i
	f := vr.f
	switch op.GOp {
	case guest.Nop:
	case guest.Li:
		i[op.Dst] = op.Imm
	case guest.Mov:
		i[op.Dst] = i[op.Srcs[0]]
	case guest.Add:
		i[op.Dst] = i[op.Srcs[0]] + i[op.Srcs[1]]
	case guest.Sub:
		i[op.Dst] = i[op.Srcs[0]] - i[op.Srcs[1]]
	case guest.Mul:
		i[op.Dst] = i[op.Srcs[0]] * i[op.Srcs[1]]
	case guest.Div:
		if i[op.Srcs[1]] == 0 {
			i[op.Dst] = 0
		} else {
			i[op.Dst] = i[op.Srcs[0]] / i[op.Srcs[1]]
		}
	case guest.And:
		i[op.Dst] = i[op.Srcs[0]] & i[op.Srcs[1]]
	case guest.Or:
		i[op.Dst] = i[op.Srcs[0]] | i[op.Srcs[1]]
	case guest.Xor:
		i[op.Dst] = i[op.Srcs[0]] ^ i[op.Srcs[1]]
	case guest.Shl:
		i[op.Dst] = i[op.Srcs[0]] << (uint64(i[op.Srcs[1]]) & 63)
	case guest.Shr:
		i[op.Dst] = i[op.Srcs[0]] >> (uint64(i[op.Srcs[1]]) & 63)
	case guest.Addi:
		i[op.Dst] = i[op.Srcs[0]] + op.Imm
	case guest.Muli:
		i[op.Dst] = i[op.Srcs[0]] * op.Imm
	case guest.Slt:
		if i[op.Srcs[0]] < i[op.Srcs[1]] {
			i[op.Dst] = 1
		} else {
			i[op.Dst] = 0
		}
	case guest.FLi:
		f[op.Dst] = op.FImm
	case guest.FMov:
		f[op.Dst] = f[op.Srcs[0]]
	case guest.FAdd:
		f[op.Dst] = f[op.Srcs[0]] + f[op.Srcs[1]]
	case guest.FSub:
		f[op.Dst] = f[op.Srcs[0]] - f[op.Srcs[1]]
	case guest.FMul:
		f[op.Dst] = f[op.Srcs[0]] * f[op.Srcs[1]]
	case guest.FDiv:
		f[op.Dst] = f[op.Srcs[0]] / f[op.Srcs[1]]
	case guest.FNeg:
		f[op.Dst] = -f[op.Srcs[0]]
	case guest.FAbs:
		f[op.Dst] = math.Abs(f[op.Srcs[0]])
	case guest.FSqrt:
		f[op.Dst] = math.Sqrt(f[op.Srcs[0]])
	case guest.CvtIF:
		f[op.Dst] = float64(i[op.Srcs[0]])
	case guest.CvtFI:
		i[op.Dst] = int64(f[op.Srcs[0]])
	default:
		panic(fmt.Sprintf("vliw: cannot execute arith op %s", op.GOp))
	}
}

// evalGuard evaluates a guard's branch condition: true means "taken".
func evalGuard(op *ir.Op, vr *vregFile) bool {
	a, b := vr.i[op.Srcs[0]], vr.i[op.Srcs[1]]
	switch op.GOp {
	case guest.Beq:
		return a == b
	case guest.Bne:
		return a != b
	case guest.Blt:
		return a < b
	case guest.Bge:
		return a >= b
	default:
		panic(fmt.Sprintf("vliw: guard with opcode %s", op.GOp))
	}
}
