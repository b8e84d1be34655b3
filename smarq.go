// Package smarq is a reproduction of "SMARQ: Software-Managed Alias
// Register Queue for Dynamic Optimizations" (Wang, Wu, Rong, Park —
// Intel Labs, MICRO 2012) as a self-contained Go library.
//
// The library contains the complete system the paper evaluates:
//
//   - a guest ISA with an interpreter and execution profiler;
//   - superblock region formation over hot paths;
//   - an optimizer IR with binary-level alias analysis, speculative
//     memory reordering, and speculative load/store elimination;
//   - the SMARQ constraint analysis (check- and anti-constraints,
//     extended dependences) and the alias register allocation algorithm
//     of the paper's Figure 13, integrated with a list scheduler;
//   - an in-order VLIW timing model with atomic regions and four alias
//     detection hardware models (the order-based queue SMARQ manages, an
//     Itanium-like ALAT, an Efficeon-like bit-mask, and none);
//   - the runtime loop of the paper's Figure 1: execute, catch alias
//     exceptions, blacklist, re-optimize conservatively;
//   - a synthetic SPECFP2000-like benchmark suite and a harness that
//     regenerates every table and figure of the paper's evaluation.
//
// This package is the public facade: it re-exports the types needed to
// assemble guest programs, run them under the dynamic optimization
// system, and regenerate the experiments. The implementation lives in the
// internal packages (see DESIGN.md for the map).
//
// # Quick start
//
//	b := smarq.NewBuilder()
//	loop := b.NewBlock()
//	// ... emit guest instructions ...
//	prog := b.MustProgram()
//
//	sys := smarq.NewSystem(prog, &smarq.State{}, smarq.NewMemory(1<<20),
//		smarq.ConfigSMARQ(64))
//	halted, err := sys.Run(10_000_000)
//
// See examples/ for complete programs and cmd/smarq-bench for the
// experiment harness.
package smarq

import (
	"smarq/internal/dynopt"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/harness"
	"smarq/internal/health"
	"smarq/internal/workload"
)

// Guest program construction.

// Program is a guest program: basic blocks of guest instructions.
type Program = guest.Program

// Builder assembles guest programs.
type Builder = guest.Builder

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return guest.NewBuilder() }

// State is the guest architectural register state.
type State = guest.State

// Memory is the byte-addressable guest memory.
type Memory = guest.Memory

// NewMemory returns a zeroed guest memory of size bytes. Contents are
// held in 1 KiB pages allocated on their first store, so an untouched
// memory costs only its page table.
func NewMemory(size int) *Memory { return guest.NewMemory(size) }

// Assemble parses guest assembly text (see internal/guest.Assemble for the
// syntax) into a program.
func Assemble(src string) (*Program, error) { return guest.Assemble(src) }

// EncodeProgram serializes a program to its binary image.
func EncodeProgram(p *Program) []byte { return guest.EncodeProgram(p) }

// DecodeProgram parses a binary image back into a validated program.
func DecodeProgram(data []byte) (*Program, error) { return guest.DecodeProgram(data) }

// The dynamic optimization system.

// Config selects the alias hardware and tuning parameters.
type Config = dynopt.Config

// System runs one guest program under the dynamic optimization system.
type System = dynopt.System

// Stats is the run-wide accounting (cycles, events, per-region data).
type Stats = dynopt.Stats

// NewSystem creates a system over prog with the given state and memory.
func NewSystem(prog *Program, st *State, mem *Memory, cfg Config) *System {
	return dynopt.New(prog, st, mem, cfg)
}

// ConfigSMARQ is the paper's primary configuration with n ordered alias
// registers (64 reproduces SMARQ, 16 the Efficeon-like SMARQ16).
func ConfigSMARQ(n int) Config { return dynopt.ConfigSMARQ(n) }

// ConfigALAT is the Itanium-like comparison model.
func ConfigALAT() Config { return dynopt.ConfigALAT() }

// ConfigEfficeon is the true Transmeta-Efficeon-like bit-mask model:
// precise named-register detection capped at 15 registers by the
// instruction encoding.
func ConfigEfficeon() Config { return dynopt.ConfigEfficeon() }

// ConfigNoHW disables alias-detection hardware (the speedup baseline).
func ConfigNoHW() Config { return dynopt.ConfigNoHW() }

// ConfigNoStoreReorder is SMARQ-64 without speculative store reordering
// (the paper's Figure 16).
func ConfigNoStoreReorder() Config { return dynopt.ConfigNoStoreReorder() }

// Tiered recovery and fault injection.

// Tier is one rung of the per-region speculation ladder (full speculation
// down to interpreter-pinned). The ladder's tuning is fixed; the one
// recovery setting is the code cache bound, Config.CodeCacheCapacity.
type Tier = dynopt.Tier

// RecoveryStats is the recovery controller's run-wide accounting
// (Stats.Recovery).
type RecoveryStats = dynopt.RecoveryStats

// ChaosConfig selects deterministic fault-injection rates (Config.Chaos).
// The zero value disables injection.
type ChaosConfig = faultinject.Config

// DefaultChaos returns the standard chaos mix for the given seed.
func DefaultChaos(seed int64) ChaosConfig { return faultinject.Default(seed) }

// DefaultHostChaos returns the standard chaos mix extended with the host
// fault classes: compile-worker panics, compile hangs killed by the
// watchdog, and poisoned compile results.
func DefaultHostChaos(seed int64) ChaosConfig { return faultinject.DefaultHost(seed) }

// HealthConfig tunes the system-scope graceful-degradation controller
// (Config.Health). The zero value disables it.
type HealthConfig = health.Config

// DefaultHealthConfig returns the standard health-controller tuning.
func DefaultHealthConfig() HealthConfig { return health.DefaultConfig() }

// HealthLevel is one rung of the global degradation ladder (normal down
// to quarantine-new-regions).
type HealthLevel = health.Level

// HealthStats is the health controller's run-wide accounting
// (Stats.Health).
type HealthStats = health.Stats

// Benchmarks and experiments.

// Benchmark is one synthetic SPECFP2000-like workload.
type Benchmark = workload.Benchmark

// Suite returns the full benchmark suite.
func Suite() []Benchmark { return workload.Suite() }

// BenchmarkByName looks up one benchmark.
func BenchmarkByName(name string) (Benchmark, bool) { return workload.ByName(name) }

// Runner executes benchmark×configuration cells and derives the paper's
// tables and figures (Figure14 .. Figure19, ScalingSweep).
type Runner = harness.Runner

// NewRunner returns a Runner over the given suite (nil = full suite).
func NewRunner(suite []Benchmark) *Runner { return harness.NewRunner(suite) }
