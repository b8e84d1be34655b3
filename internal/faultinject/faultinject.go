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
// Determinism: every injection decision is a keyed draw. A draw hashes
// (seed, class, region entry, ordinal) with the SplitMix64 finalizer and
// fires when the top 53 bits of the hash, read as a uniform value in
// [0, 1), fall below the class's rate. The ordinal is the region's count
// of earlier draws of that class (Ordinals), which the caller keeps with
// the region. No draw depends on any other region's draws, on other
// classes, or on the order of probes, so a fault is a pure function of
// its site and is named by (class, entry, ordinal). Every probe runs on
// the simulation thread at a point fixed by the simulated clock, so for a
// fixed seed and workload the injected fault pattern is exactly
// reproducible — `smarq-run -chaos-seed N` replays a CI chaos failure
// bit-for-bit, at any background worker count.
package faultinject

import (
	"fmt"
	"math"

	"smarq/internal/guest"
)

// Config selects the injection rates. The zero value disables injection
// entirely. Every rate is the per-opportunity probability in [0, 1]:
// alias/guard rates are drawn once per region dispatch, the compile and
// host rates once per compile request, and the corrupt rate once per
// rollback. A rate of 0 draws nothing.
type Config struct {
	// Seed keys the injector's draws. Runs with equal seeds, rates and
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
	// thread at each compile request, and apply only when the request
	// runs a fresh job, so the pattern is identical at any worker count.

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

// Class is one fault class. Each class has its own rate, and each region
// its own count of the class's draws (Ordinals).
type Class uint8

// The fault classes, one per Config rate.
const (
	SpuriousAlias Class = iota
	GuardFail
	CompileFail
	CorruptState
	WorkerPanic
	CompileHang
	PoisonResult
	NumClasses
)

// rate returns k's per-opportunity probability in c.
func (c Config) rate(k Class) float64 {
	return [NumClasses]float64{
		SpuriousAlias: c.SpuriousAliasRate,
		GuardFail:     c.GuardFailRate,
		CompileFail:   c.CompileFailRate,
		CorruptState:  c.CorruptRate,
		WorkerPanic:   c.WorkerPanicRate,
		CompileHang:   c.CompileHangRate,
		PoisonResult:  c.PoisonResultRate,
	}[k]
}

// Ordinals counts one region's draws of each class: the ordinal of the
// region's next draw of class c is o[c]. The caller keeps them with the
// region for as long as the injector lives, across runs.
type Ordinals [NumClasses]uint32

// Counts reports how often each fault kind's draw fired. A caller may
// leave a fired draw unapplied: dynopt draws the host faults at every
// compile request but applies them only to one that runs a fresh job, and
// only the dominant one of several.
type Counts struct {
	SpuriousAliases int64
	GuardFails      int64
	CompileFails    int64
	Corruptions     int64
	WorkerPanics    int64
	CompileHangs    int64
	PoisonedResults int64
}

// Injector draws injection decisions. It holds no draw state: each draw
// is a hash of (seed, class, entry, ordinal), and the ordinals live with
// the caller's regions. Not safe for concurrent use (it counts what
// fired); each System owns its injector.
type Injector struct {
	// key is each class's hash key, derived from the seed; threshold is
	// its rate scaled to 53 bits: a draw fires when its top 53 bits are
	// below it, so a rate of 0 never fires and a rate of 1 always does.
	key       [NumClasses]uint64
	threshold [NumClasses]uint64
	fired     [NumClasses]int64
}

// New returns an injector for the given configuration.
func New(cfg Config) *Injector {
	in := &Injector{}
	for c := range NumClasses {
		in.key[c] = mix64(uint64(cfg.Seed) + uint64(c+1)*golden)
		in.threshold[c] = uint64(math.Ceil(cfg.rate(c) * (1 << 53)))
	}
	return in
}

// golden is SplitMix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// mix64 is SplitMix64's output finalizer, a bijection on 64 bits whose
// output bits each depend on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// hash is the draw word for the ordinal-th draw of class c at entry: the
// SplitMix64 output at index (entry, ordinal) of a stream keyed by (seed,
// class).
func (in *Injector) hash(c Class, entry int, ord uint32) uint64 {
	return mix64(in.key[c] + (uint64(uint32(entry))<<32|uint64(ord))*golden)
}

// draw makes the region's next draw of class c and returns its ordinal,
// whether it fired and its hash word. A class whose rate is 0 draws
// nothing: its ordinal stays put.
func (in *Injector) draw(c Class, entry int, o *Ordinals) (ord uint32, fired bool, h uint64) {
	if in.threshold[c] == 0 {
		return 0, false, 0
	}
	ord = o[c]
	o[c]++
	h = in.hash(c, entry, ord)
	if h>>11 >= in.threshold[c] {
		return ord, false, h
	}
	in.fired[c]++
	return ord, true, h
}

// Draw makes the next draw of class c for the region at entry, whose
// draw counts are o, and reports the draw's ordinal and whether the fault
// fires. Whether it fires depends on the seed, c, entry and the ordinal
// alone; (c, entry, ordinal) names the fault.
func (in *Injector) Draw(c Class, entry int, o *Ordinals) (ord uint32, fired bool) {
	ord, fired, _ = in.draw(c, entry, o)
	return ord, fired
}

// Corrupt makes the region's next CorruptState draw, after a rollback,
// and when it fires flips bits in one integer register — the divergence
// a broken undo log or checkpoint restore would cause. The register comes
// from a second hash word, independent of the one that fired.
func (in *Injector) Corrupt(entry int, o *Ordinals, st *guest.State) (ord uint32, fired bool) {
	ord, fired, h := in.draw(CorruptState, entry, o)
	if fired {
		st.R[1+mix64(h+golden)%(guest.NumRegs-1)] ^= 0x5a5a5a5a
	}
	return ord, fired
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

// Poison makes the region's next PoisonResult draw and, when it fires,
// says which validation layer must catch it: the mode alternates with the
// draw's ordinal, so both layers are exercised and the mode is named by
// the fault's ordinal too.
func (in *Injector) Poison(entry int, o *Ordinals) (ord uint32, mode PoisonMode) {
	ord, fired := in.Draw(PoisonResult, entry, o)
	switch {
	case !fired:
		return ord, PoisonNone
	case ord%2 == 0:
		return ord, PoisonChecksum
	default:
		return ord, PoisonStructure
	}
}

// Counts returns the cumulative fired-fault counters.
func (in *Injector) Counts() Counts {
	f := &in.fired
	return Counts{
		SpuriousAliases: f[SpuriousAlias],
		GuardFails:      f[GuardFail],
		CompileFails:    f[CompileFail],
		Corruptions:     f[CorruptState],
		WorkerPanics:    f[WorkerPanic],
		CompileHangs:    f[CompileHang],
		PoisonedResults: f[PoisonResult],
	}
}

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
