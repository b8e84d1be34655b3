// Health integration: the system-scope graceful-degradation controller
// (internal/health) threaded through the dynopt loop. The per-region
// recovery ladder (recovery.go) protects against one region
// misbehaving; the health controller protects against the *host*
// misbehaving — compile-worker panics, watchdog kills, poisoned
// results, or a system-wide rollback storm — by shedding capability one
// level at a time: speculation, then compilation, then admission of new
// regions. Every observation is fed from the simulation thread at
// points fixed by the simulated clock, so the controller's walk is
// byte-identical for a fixed seed at any compile-worker count.
package dynopt

import (
	"smarq/internal/health"
	"smarq/internal/telemetry"
)

// healthDispatchOK reports whether installed code may dispatch at the
// current health level (false at compile-off and below: the system runs
// interpreter-only until health recovers).
func (s *System) healthDispatchOK() bool {
	return s.hc == nil || s.hc.Level() < health.CompileOff
}

// compileAllowed gates new compile work: quarantined regions never
// compile again, and while the health controller has compilation shed
// nothing does. A region becoming hot while the controller sits at the
// quarantine level is permanently barred (quarantine-new-regions).
func (s *System) compileAllowed(entry int) bool {
	if rr := s.disp[entry].rec; rr != nil && rr.quarantined {
		return false
	}
	if s.hc == nil {
		return true
	}
	lv := s.hc.Level()
	if lv < health.CompileOff {
		return true
	}
	if lv == health.Quarantine {
		s.quarantineRegion(entry, telemetry.CauseHealth)
	}
	return false
}

// effectiveTier is the region's ladder rung clamped by the health level:
// at no-speculation and below, every new compile is at least
// conservative. The clamp applies when the compile input is built, so its
// key (which holds the tier-derived flags) stays correct for the reuse
// check and the fleet cache.
func (s *System) effectiveTier(entry int) Tier {
	t := s.tierOf(entry)
	if s.hc != nil && s.hc.Level() >= health.NoSpeculation && t < TierConservative {
		t = TierConservative
	}
	return t
}

// healthClean feeds one clean observation — a committed dispatch, or (at
// compile-off and below, where nothing dispatches) quiet interpreted
// progress — and applies any promotion it earns.
func (s *System) healthClean() {
	if s.hc == nil {
		return
	}
	if mv, ok := s.hc.RecordClean(); ok {
		s.tel.healthMove(s.now(), mv, telemetry.CauseNone)
	}
}

// healthRollback feeds one misspeculation rollback (alias exception or
// speculation-induced fault; guard fails are side exits, not
// misspeculation) and applies any demotion it triggers.
func (s *System) healthRollback() {
	if s.hc == nil {
		return
	}
	if mv, ok := s.hc.RecordRollback(); ok {
		s.tel.healthMove(s.now(), mv, telemetry.CauseRate)
	}
}

// recordHostFault records one contained host-side compile fault — a
// worker panic, a watchdog kill, a rejected poisoned result — in
// telemetry and the health controller.
func (s *System) recordHostFault(entry int, cause telemetry.Cause) {
	s.tel.hostFault(s.now(), entry, s.tierOf(entry), cause)
	if s.hc == nil {
		return
	}
	if mv, ok := s.hc.RecordHostFault(); ok {
		s.tel.healthMove(s.now(), mv, cause)
	}
}

// quarantineRegion permanently bars entry from compiling: a worker panic
// in its compile proves the pipeline cannot be trusted with this input,
// and at the quarantine health level new regions are not admitted at
// all. Installed code, if any, is dropped by the caller's failure path;
// the bar itself is the record's quarantine bit, checked by
// compileAllowed.
func (s *System) quarantineRegion(entry int, cause telemetry.Cause) {
	rr := s.recordOf(entry)
	if rr.quarantined {
		return
	}
	rr.quarantined = true
	s.Stats.Compile.Quarantined++
	s.tel.quarantine(s.now(), entry, s.tierOf(entry), cause)
}
