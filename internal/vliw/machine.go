package vliw

import (
	"sync"
	"unsafe"

	"smarq/internal/aliashw"
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// Outcome classifies how a region execution ended.
type Outcome uint8

const (
	// Commit: every guard held, no alias exception; effects are permanent
	// and control continues at the region's final target.
	Commit Outcome = iota
	// GuardFail: a side-exit branch went off-trace; the region rolled
	// back and the runtime must resume in the interpreter.
	GuardFail
	// AliasException: the alias hardware detected a violated speculation;
	// the region rolled back and must be re-optimized conservatively.
	AliasException
	// Fault: a guest memory fault inside the region (possibly induced by
	// speculation); the region rolled back.
	Fault
)

var outcomeNames = map[Outcome]string{
	Commit: "commit", GuardFail: "guard-fail",
	AliasException: "alias-exception", Fault: "fault",
}

// String returns the outcome name.
func (o Outcome) String() string { return outcomeNames[o] }

// ExecResult reports one region execution.
type ExecResult struct {
	Outcome Outcome
	// NextBlock is where control continues after a commit (interp.HaltID
	// when the region ends the program).
	NextBlock int
	// Conflict identifies the aliasing op pair on AliasException.
	Conflict *aliashw.Conflict
	// OpsExecuted counts ops retired before the region ended (stats).
	OpsExecuted int
	// ARHighWater is the alias-register occupancy high-water mark of the
	// execution: the highest queue slot (+1) an executed P-bit memory op
	// claimed. Telemetry-only.
	ARHighWater int
	// StoresBuffered is how many stores the atomic region had buffered
	// when the execution ended (committed or discarded). Telemetry-only.
	StoresBuffered int
	// Checked is how many register comparisons the alias hardware
	// performed — the §2.4 energy proxy. A baked region counts them
	// statically: every list before the op the entry ended at, plus that
	// op's list up to its conflict.
	Checked int
}

// CompiledRegion is an installed translation: the schedule decoded into a
// flat stream of value structs, the commit-time register mapping, and the
// precomputed static cycle cost of one complete execution. It holds no
// *ir.Op or *ir.Region, so it shares nothing with the compile that
// produced it — the IR may live in a recycled arena. Bake lowers it, in
// place, into the form the host runs; after that it is read-only, and
// one region may run on many contexts at once.
type CompiledRegion struct {
	// Cycles is the in-order issue cycle count of the schedule on this
	// machine.
	Cycles int64
	// GuestInsts is the number of guest instructions a committed
	// execution retires.
	GuestInsts int
	// NumVRegs sizes the executor's virtual register files.
	NumVRegs int
	// FinalTarget is where control continues after a commit
	// (interp.HaltID when the region ends the program).
	FinalTarget int
	// IntOut and FloatOut map each guest register to the vreg holding its
	// value at commit.
	IntOut, FloatOut [guest.NumRegs]ir.VReg
	// intLive and floatLive are the live-out masks: bit r is set when a
	// commit must write guest register r back (liveOutMasks), clear when
	// the region leaves it as it found it.
	intLive, floatLive uint32
	// baked says Bake lowered code for hw.
	baked bool
	hw    aliashw.HW
	// arHW is a committing entry's alias-register high-water mark.
	arHW int32
	// code is the region's one op stream: the schedule decoded, until
	// Bake rewrites it into the stream the host runs (see exec.go).
	code []decOp
	// lists holds every check list, in stream order: the stream slots of
	// the origins each checking op compares against, in hardware order.
	lists []int32
	// dropped holds, ascending, the schedule indices of the ops the bake
	// removed from the stream.
	dropped []int32
	// zeroInt and zeroFloat are the vregs outside the live-ins that the
	// stream or the commit reads before the stream writes them (unread
	// before a write, a vreg needs no clearing): an entry zeroes those
	// only. zeroInt holds the zero vreg whenever a memory op indexes
	// through it.
	zeroInt, zeroFloat []int32
}

// Compile computes a scheduled sequence's static cycle cost and decodes
// every op into the flat stream the bake lowers. seq and reg are read
// only during the call — nothing is retained — so they may be
// arena-backed and recycled as soon as Compile returns.
func (c Config) Compile(seq []*ir.Op, reg *ir.Region, guestInsts int) *CompiledRegion {
	code, intWritten, floatWritten := decode(seq)
	cr := &CompiledRegion{
		Cycles:      c.CycleCount(seq, reg.NumVRegs),
		GuestInsts:  guestInsts,
		NumVRegs:    reg.NumVRegs,
		FinalTarget: reg.FinalTarget,
		IntOut:      reg.IntOut,
		FloatOut:    reg.FloatOut,
		code:        code,
	}
	cr.intLive, cr.floatLive = liveOutMasks(&cr.IntOut, &cr.FloatOut, intWritten, floatWritten)
	return cr
}

// Ops returns the number of ops in the schedule — what one complete
// execution retires — whatever the bake dropped from the stream.
func (cr *CompiledRegion) Ops() int { return len(cr.code) + len(cr.dropped) }

// Bytes is the region's retained heap footprint: the struct itself (the
// live-out masks included) plus the op stream, the check lists, the
// dropped indices and the vregs to zero, each allocated at exact length. The result depends
// only on the region's structure — never on addresses or host state — so
// it is deterministic and safe to fold into cache-eviction decisions.
func (cr *CompiledRegion) Bytes() int64 {
	return int64(unsafe.Sizeof(*cr)) + int64(len(cr.code))*int64(unsafe.Sizeof(decOp{})) +
		int64(len(cr.lists)+len(cr.dropped)+len(cr.zeroInt)+len(cr.zeroFloat))*int64(unsafe.Sizeof(int32(0)))
}

// readyPool recycles the per-vreg ready-time scratch of CycleCount, which
// runs once per compile on the worker goroutines.
var readyPool = sync.Pool{New: func() interface{} { return new([]int64) }}

// CycleCount models in-order VLIW issue of the sequence: ops issue in
// order, each waiting for its operands (fixed latencies) and for a free
// slot of its class (IssueWidth total, MemPorts for memory ops). Because
// latencies are fixed, the count is exact and deterministic. It equals
// the last op's issue cycle (per IssueCycles) plus one.
func (c Config) CycleCount(seq []*ir.Op, numVRegs int) int64 {
	if len(seq) == 0 {
		return 1
	}
	sp := readyPool.Get().(*[]int64)
	if cap(*sp) < numVRegs {
		*sp = make([]int64, numVRegs)
	}
	readyAt := (*sp)[:numVRegs]
	clear(readyAt)
	last := c.issue(seq, readyAt, nil)
	readyPool.Put(sp)
	return last + 1
}
