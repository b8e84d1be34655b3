// Package faultinject provides deterministic, seed-driven fault injection
// ("chaos") for the dynamic optimization pipeline, plus the rollback
// invariant checker the chaos harness runs with.
//
// Production dynamic optimizers live or die on graceful degradation under
// hostile aliasing behaviour: spurious hardware alias exceptions, traces
// that stop matching behaviour (guard-fail storms), translator failures,
// and — worst of all — rollbacks that do not actually restore the
// checkpoint. None of those can be provoked on demand from guest code
// alone, so this package fakes them at the runtime layer.
//
// Determinism: the injector is a sequence of Bernoulli draws from a
// private PRNG. Each probe (SpuriousAlias, GuardFail, CompileFail,
// CorruptState, and the host fault classes WorkerPanic, CompileHang,
// PoisonResult) consumes exactly one draw, and every probe
// runs on the simulation thread at a point fixed by the simulated clock,
// so for a fixed seed and workload the injected fault pattern is exactly
// reproducible — `smarq-run -chaos-seed N` replays a CI chaos failure
// bit-for-bit, at any background worker count.
package faultinject

import (
	"fmt"
	"math"
	"math/rand"

	"smarq/internal/guest"
)

// Config selects the injection rates. The zero value disables injection
// entirely. Every rate is the per-opportunity probability in [0, 1]:
// alias/guard rates are drawn once per region dispatch, the compile rate
// once per compilation, and the corrupt rate once per rollback.
type Config struct {
	// Seed drives the injector's PRNG. Runs with equal seeds, rates and
	// workloads inject identical fault patterns.
	Seed int64
	// SpuriousAliasRate forces alias exceptions that no speculation
	// caused — hardware false positives (the paper's §2.4 energy/precision
	// discussion; the ALAT is especially prone to them).
	SpuriousAliasRate float64
	// GuardFailRate forces off-trace side exits, simulating traces that
	// no longer match behaviour (guard-fail storms).
	GuardFailRate float64
	// CompileFailRate makes region compilation fail, simulating
	// translator resource exhaustion.
	CompileFailRate float64
	// CorruptRate perturbs one architectural register after a rollback,
	// simulating post-rollback state divergence — exists to prove the
	// invariant checker catches broken recovery, never for soak runs that
	// assert state equality.
	CorruptRate float64

	// Host fault classes: faults of the *host-side* compile machinery
	// rather than the simulated guest. All are drawn on the simulation
	// thread when a compile job is about to be handed to a worker (or run
	// synchronously), so the pattern is identical at any worker count.

	// WorkerPanicRate makes the compile job panic inside the worker. The
	// pipeline's recover() converts it into a failed-compile event and the
	// region is quarantined; the process must never die.
	WorkerPanicRate float64
	// CompileHangRate simulates a compile overrunning its watchdog
	// deadline in simulated cycles: the result is discarded at the
	// deadline instead of installing. Background path only (the
	// synchronous path has no deadline to overrun).
	CompileHangRate float64
	// PoisonResultRate corrupts the compile result (the decoded op stream)
	// after the pipeline runs. Install-time validation — the
	// content checksum and structural invariants — must reject it; a
	// poisoned region is never recorded, cached or dispatched.
	PoisonResultRate float64
}

// Enabled reports whether any injection can fire.
func (c Config) Enabled() bool {
	return c.SpuriousAliasRate > 0 || c.GuardFailRate > 0 ||
		c.CompileFailRate > 0 || c.CorruptRate > 0 || c.HostEnabled()
}

// HostEnabled reports whether any host fault class can fire.
func (c Config) HostEnabled() bool {
	return c.WorkerPanicRate > 0 || c.CompileHangRate > 0 ||
		c.PoisonResultRate > 0
}

// Validate rejects rates outside [0, 1].
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"SpuriousAliasRate", c.SpuriousAliasRate},
		{"GuardFailRate", c.GuardFailRate},
		{"CompileFailRate", c.CompileFailRate},
		{"CorruptRate", c.CorruptRate},
		{"WorkerPanicRate", c.WorkerPanicRate},
		{"CompileHangRate", c.CompileHangRate},
		{"PoisonResultRate", c.PoisonResultRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("faultinject: %s = %v outside [0, 1]", r.name, r.v)
		}
	}
	return nil
}

// Default returns the standard chaos mix for soak runs and `smarq-run
// -chaos-seed`: frequent spurious alias exceptions and guard failures,
// occasional compile failures, no state corruption (so final-state
// equality against the reference interpreter must still hold).
func Default(seed int64) Config {
	return Config{
		Seed:              seed,
		SpuriousAliasRate: 0.05,
		GuardFailRate:     0.05,
		CompileFailRate:   0.02,
	}
}

// DefaultHost returns the standard chaos mix extended with every host
// fault class: worker panics, compile hangs and poisoned results.
// Final-state equality against the reference interpreter must
// still hold — host faults only ever delay or suppress compiled code.
func DefaultHost(seed int64) Config {
	c := Default(seed)
	c.WorkerPanicRate = 0.02
	c.CompileHangRate = 0.02
	c.PoisonResultRate = 0.02
	return c
}

// Counts reports how often each fault kind actually fired.
type Counts struct {
	SpuriousAliases int64
	GuardFails      int64
	CompileFails    int64
	Corruptions     int64
	WorkerPanics    int64
	CompileHangs    int64
	PoisonedResults int64
}

// Injector draws injection decisions. Not safe for concurrent use; each
// System owns its injector.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	counts Counts
}

// New returns an injector for the given configuration.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

func (in *Injector) roll(rate float64) bool {
	return in.rng.Float64() < rate
}

// SpuriousAlias decides whether this region dispatch suffers a hardware
// false-positive alias exception.
func (in *Injector) SpuriousAlias() bool {
	if in.roll(in.cfg.SpuriousAliasRate) {
		in.counts.SpuriousAliases++
		return true
	}
	return false
}

// GuardFail decides whether this region dispatch is forced off-trace.
func (in *Injector) GuardFail() bool {
	if in.roll(in.cfg.GuardFailRate) {
		in.counts.GuardFails++
		return true
	}
	return false
}

// CompileFail decides whether this compilation attempt fails.
func (in *Injector) CompileFail() bool {
	if in.roll(in.cfg.CompileFailRate) {
		in.counts.CompileFails++
		return true
	}
	return false
}

// CorruptState decides whether to corrupt the post-rollback state and,
// when it fires, flips bits in one integer register — the divergence a
// broken undo log or checkpoint restore would cause. Returns whether it
// fired.
func (in *Injector) CorruptState(st *guest.State) bool {
	if !in.roll(in.cfg.CorruptRate) {
		return false
	}
	r := 1 + in.rng.Intn(guest.NumRegs-1)
	st.R[r] ^= 0x5a5a5a5a
	in.counts.Corruptions++
	return true
}

// PoisonMode selects how an injected poisoned result is corrupted, so
// both install-time validation layers get exercised.
type PoisonMode uint8

const (
	// PoisonNone: the poison probe did not fire.
	PoisonNone PoisonMode = iota
	// PoisonChecksum corrupts the result after its content checksum was
	// stamped — the checksum comparison at install must catch it.
	PoisonChecksum
	// PoisonStructure corrupts the decoded region before the checksum is
	// stamped (a consistent hash over broken contents) — the structural
	// invariant check (vreg ranges, operand presence) must catch it.
	PoisonStructure
)

// WorkerPanic decides whether this compile job panics in its worker.
func (in *Injector) WorkerPanic() bool {
	if in.roll(in.cfg.WorkerPanicRate) {
		in.counts.WorkerPanics++
		return true
	}
	return false
}

// CompileHang decides whether this compile overruns its watchdog deadline.
func (in *Injector) CompileHang() bool {
	if in.roll(in.cfg.CompileHangRate) {
		in.counts.CompileHangs++
		return true
	}
	return false
}

// PoisonResult decides whether this compile result is corrupted and, when
// it fires, which validation layer must catch it. One draw; the mode
// alternates with the fired count so both layers are exercised without
// consuming extra randomness.
func (in *Injector) PoisonResult() PoisonMode {
	if !in.roll(in.cfg.PoisonResultRate) {
		return PoisonNone
	}
	in.counts.PoisonedResults++
	if in.counts.PoisonedResults%2 == 1 {
		return PoisonChecksum
	}
	return PoisonStructure
}

// Counts returns the cumulative fired-fault counters.
func (in *Injector) Counts() Counts { return in.counts }

// Snapshot fingerprints the architectural state at a region entry: the
// full register file plus a digest of guest memory. Verify after a
// rollback proves the atomic region restored the exact checkpoint.
type Snapshot struct {
	regs guest.State
	mem  uint64
}

// Capture snapshots the state and memory digest.
func Capture(st *guest.State, mem *guest.Memory) Snapshot {
	return Snapshot{regs: *st, mem: mem.Digest()}
}

// Verify compares the current state against the snapshot. Float registers
// compare by bit pattern so a NaN-preserving restore passes.
func (s *Snapshot) Verify(st *guest.State, mem *guest.Memory) error {
	for r := range s.regs.R {
		if st.R[r] != s.regs.R[r] {
			return fmt.Errorf("faultinject: rollback diverged: r%d = %d, checkpoint had %d",
				r, st.R[r], s.regs.R[r])
		}
	}
	for r := range s.regs.F {
		if math.Float64bits(st.F[r]) != math.Float64bits(s.regs.F[r]) {
			return fmt.Errorf("faultinject: rollback diverged: f%d = %v, checkpoint had %v",
				r, st.F[r], s.regs.F[r])
		}
	}
	if d := mem.Digest(); d != s.mem {
		return fmt.Errorf("faultinject: rollback diverged: memory digest %#x, checkpoint had %#x",
			d, s.mem)
	}
	return nil
}
