// Package vliw models the in-order VLIW target of the paper's experiments:
// a statically scheduled machine with a configurable issue width, memory
// ports, and operation latencies (the paper's Table 2 equivalent), plus the
// atomic-region and alias-detection hardware the dynamic optimization
// system relies on.
//
// The model is deliberately cache-less: every latency is fixed, so a
// scheduled region has a deterministic cycle count and experiments are
// exactly reproducible. Speedups in this model come from the same source as
// on the paper's machine — hiding load and floating-point latencies by
// hoisting loads across (possibly aliasing) stores on an in-order pipeline.
package vliw

import (
	"smarq/internal/guest"
	"smarq/internal/ir"
)

// PortClass says which issue resource an operation consumes.
type PortClass uint8

const (
	// ALUPort: integer/float ALU slots (also rotates, AMOVs, guards).
	ALUPort PortClass = iota
	// MemPort: load/store slots.
	MemPort
)

// Config holds the machine parameters (the reproduction of Table 2).
type Config struct {
	// IssueWidth is the total operations per bundle.
	IssueWidth int
	// MemPorts is the maximum memory operations per bundle.
	MemPorts int
	// Latencies in cycles.
	IntLat, MemLat, FPLat, FDivLat, FSqrtLat int
	// AliasRegs is the physical alias register count (64 in the paper).
	AliasRegs int
	// RollbackPenalty is charged when an atomic region aborts (alias
	// exception, failed guard, or fault) before re-execution begins.
	RollbackPenalty int
	// CommitCycles is charged when a region commits.
	CommitCycles int
	// InterpCyclesPerInst models the interpreter's cost per guest
	// instruction relative to native cycles.
	InterpCyclesPerInst int
	// OptCyclesPerOp and SchedCyclesPerOp charge the optimizer's own
	// execution time (the paper's Figure 18 measures it with markers
	// around the algorithm): cycles per IR op for the non-scheduling
	// passes and for scheduling + alias register allocation respectively.
	OptCyclesPerOp, SchedCyclesPerOp int
	// CompileCyclesPerInst and CompileCyclesPerCheck parameterize the
	// background-compilation latency model (dynopt.CompileConfig): an
	// enqueued region occupies CompileCyclesPerInst per guest instruction
	// plus CompileCyclesPerCheck per guest memory operation of simulated
	// time before its code may install. Both are derived from the
	// superblock alone — never from the compile result — so the install
	// point is fixed at enqueue and identical at any host worker count.
	CompileCyclesPerInst, CompileCyclesPerCheck int
}

// DefaultConfig mirrors the paper's machine as closely as the published
// parameters allow: 64 alias registers, a wide in-order VLIW.
func DefaultConfig() Config {
	return Config{
		IssueWidth:            4,
		MemPorts:              2,
		IntLat:                1,
		MemLat:                3,
		FPLat:                 4,
		FDivLat:               12,
		FSqrtLat:              16,
		AliasRegs:             64,
		RollbackPenalty:       100,
		CommitCycles:          2,
		InterpCyclesPerInst:   12,
		OptCyclesPerOp:        60,
		SchedCyclesPerOp:      55,
		CompileCyclesPerInst:  120,
		CompileCyclesPerCheck: 40,
	}
}

// IssueCycles returns the in-order issue cycle of every op in seq, using
// the same model as CycleCount. Trace tools use it to show the static
// schedule the way a VLIW bundle dump would.
func (c Config) IssueCycles(seq []*ir.Op, numVRegs int) []int64 {
	out := make([]int64, len(seq))
	c.issue(seq, make([]int64, numVRegs), out)
	return out
}

// issue runs the in-order issue model over seq and returns the last op's
// issue cycle. readyAt is zeroed per-vreg scratch; out, when non-nil,
// receives every op's issue cycle.
func (c Config) issue(seq []*ir.Op, readyAt, out []int64) int64 {
	var clock int64
	alu, mem := 0, 0
	advance := func(to int64) {
		if to <= clock {
			to = clock + 1
		}
		clock = to
		alu, mem = 0, 0
	}
	for i, op := range seq {
		var earliest int64
		for _, s := range op.Srcs {
			if s != ir.NoVReg && readyAt[s] > earliest {
				earliest = readyAt[s]
			}
		}
		if earliest > clock {
			advance(earliest)
		}
		for alu >= c.IssueWidth || (op.IsMem() && mem >= c.MemPorts) {
			advance(clock + 1)
		}
		alu++
		if op.IsMem() {
			mem++
		}
		if out != nil {
			out[i] = clock
		}
		if op.Dst != ir.NoVReg {
			readyAt[op.Dst] = clock + int64(c.Latency(op))
		}
	}
	return clock
}

// Latency returns op's result latency in cycles.
func (c Config) Latency(op *ir.Op) int {
	switch op.Kind {
	case ir.Load:
		return c.MemLat
	case ir.Store, ir.Guard, ir.Rotate, ir.AMov, ir.Copy:
		return 1
	}
	// Arith: decided by the guest opcode.
	switch op.GOp {
	case guest.FDiv:
		return c.FDivLat
	case guest.FSqrt:
		return c.FSqrtLat
	}
	if op.GOp.IsFloat() {
		return c.FPLat
	}
	return c.IntLat
}

// Class returns the issue resource op consumes.
func (c Config) Class(op *ir.Op) PortClass {
	if op.IsMem() {
		return MemPort
	}
	return ALUPort
}
