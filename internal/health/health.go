// Package health is the system-scope graceful-degradation controller: it
// does for the whole dynamic optimization system what the per-region
// recovery ladder (internal/dynopt/recovery.go) does for one region, and
// it runs the same hysteresis state machine (Ladder) to do it.
//
// The controller watches a sliding window of system events — host faults
// (compile-worker panics, watchdog kills, rejected poisoned results) and
// misspeculation rollbacks — and walks a global degradation ladder:
//
//	normal → no-speculation → compile-off → quarantine
//
// Each demotion sheds one capability: first speculation (new compiles are
// clamped to the conservative tier), then compilation entirely
// (interpreter-only execution), then admission (regions that become hot
// while quarantined are permanently barred from compiling). Unlike the
// region ladder, observations are weighted (a host fault scores
// HostFaultWeight, a rollback 1) and there is no storm detector: only the
// window score demotes. Re-promotion needs a sustained run of clean
// observations, scaled by an exponential backoff that doubles on every
// demotion — the hysteresis that keeps a flapping host from oscillating —
// and past MaxBackoff the controller goes sticky and never promotes
// again.
//
// Determinism: the controller is plain single-threaded state fed only
// from the simulation thread (dispatch outcomes and install points, both
// fixed by the simulated clock), so its walk is byte-identical for a
// fixed seed at any background worker count.
package health

import "fmt"

// Level is one rung of the global degradation ladder. Higher values
// degrade further.
type Level int

const (
	// Normal: full service, per-region ladders govern speculation.
	Normal Level = iota
	// NoSpeculation clamps every new compile to the conservative tier
	// (no reordering past may-alias memory ops, no speculative
	// eliminations); installed code keeps running.
	NoSpeculation
	// CompileOff stops compiling and dispatching entirely: the system
	// runs interpreter-only until health recovers.
	CompileOff
	// Quarantine additionally bars regions that become hot while here
	// from ever compiling (quarantine-new-regions).
	Quarantine
)

// NumLevels is the ladder length.
const NumLevels = int(Quarantine) + 1

var levelNames = [NumLevels]string{
	"normal", "no-speculation", "compile-off", "quarantine",
}

// String returns the level name.
func (l Level) String() string {
	if l < 0 || int(l) >= NumLevels {
		return fmt.Sprintf("level(%d)", int(l))
	}
	return levelNames[l]
}

// Config tunes the health controller. The zero value disables it
// entirely (Enabled() == false), so existing runs and goldens are
// untouched unless a caller opts in.
type Config struct {
	// Window is the sliding window of observations over which the fault
	// score is measured.
	Window int
	// DemoteThreshold demotes one level when the weighted fault score
	// inside the window reaches it; at most Window × HostFaultWeight, the
	// highest score the window can hold.
	DemoteThreshold int
	// HostFaultWeight is how many window points one host fault scores
	// (rollbacks score 1): host faults are rarer and individually more
	// alarming than rollbacks. At most 255: a window slot is one byte.
	HostFaultWeight int
	// PromoteAfter re-promotes one level after this many consecutive
	// clean observations, scaled by the current backoff multiplier.
	PromoteAfter int
	// BackoffFactor multiplies the promotion backoff on every demotion;
	// must be >= 2 so oscillation damps.
	BackoffFactor int
	// MaxBackoff caps the multiplier: past it the controller is sticky
	// and never promotes again.
	MaxBackoff int
}

// Enabled reports whether the controller is configured on.
func (c Config) Enabled() bool { return c != Config{} }

// DefaultConfig returns the standard tuning: tolerant enough that the
// background noise of a chaos soak doesn't demote, tight enough that a
// host-fault burst degrades within one window.
func DefaultConfig() Config {
	return Config{
		Window:          128,
		DemoteThreshold: 16,
		HostFaultWeight: 4,
		PromoteAfter:    192,
		BackoffFactor:   2,
		MaxBackoff:      8,
	}
}

// policy is the controller's Ladder tuning: the quarantine floor, weighted
// observations and no storm detector.
func (c Config) policy() Policy {
	return Policy{
		Floor:           int(Quarantine),
		Window:          c.Window,
		DemoteThreshold: c.DemoteThreshold,
		MaxWeight:       c.HostFaultWeight,
		PromoteAfter:    c.PromoteAfter,
		BackoffFactor:   c.BackoffFactor,
		MaxBackoff:      c.MaxBackoff,
	}
}

// Validate rejects nonsensical tunings, and tunings whose window score
// can never reach DemoteThreshold (a zero Config is valid: disabled).
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	return c.policy().Validate()
}

// Stats is the controller's run-wide accounting (dynopt.Stats.Health).
type Stats struct {
	// Demotions and Promotions count ladder moves.
	Demotions  int64
	Promotions int64
	// HostFaults, Rollbacks and Cleans count the observations fed in.
	HostFaults int64
	Rollbacks  int64
	Cleans     int64
	// FinalLevel and Sticky are the end-of-run controller state.
	FinalLevel Level
	Sticky     bool
	// LevelEntries counts how many times each level was entered by a
	// demotion or promotion (Normal's count excludes the initial state).
	LevelEntries [NumLevels]int64
}

// Move describes one ladder transition.
type Move struct {
	From, To Level
}

// Controller is the system-scope Ladder plus its observation accounting.
// Not safe for concurrent use; the simulation thread owns it.
type Controller struct {
	policy Policy
	ladder Ladder[Level]
	stats  Stats
}

// New returns a controller at Normal. cfg must be Enabled and Valid.
func New(cfg Config) *Controller {
	p := cfg.policy()
	return &Controller{policy: p, ladder: NewLadder[Level](p)}
}

// Level returns the current degradation level.
func (c *Controller) Level() Level { return c.ladder.Level }

// Stats returns the accounting with the move counts and the end-of-run
// fields filled.
func (c *Controller) Stats() Stats {
	st := c.stats
	st.Demotions, st.Promotions = int64(c.ladder.Demotions), int64(c.ladder.Promotions)
	st.FinalLevel, st.Sticky = c.ladder.Level, c.ladder.Sticky
	return st
}

// move reports the ladder move from level from, if the observation just
// fed made one, and counts the level it entered.
func (c *Controller) move(from Level, moved bool) (Move, bool) {
	if !moved {
		return Move{}, false
	}
	c.stats.LevelEntries[c.ladder.Level]++
	return Move{From: from, To: c.ladder.Level}, true
}

// RecordClean feeds one clean observation (a committed dispatch, or — at
// CompileOff and above, where nothing dispatches — quiet interpreted
// progress) and reports a promotion if one was earned: PromoteAfter ×
// backoff consecutive cleans, unless sticky.
func (c *Controller) RecordClean() (Move, bool) {
	c.stats.Cleans++
	from := c.ladder.Level
	return c.move(from, c.ladder.Clean(c.policy))
}

// RecordRollback feeds one misspeculation rollback (weight 1) and reports
// a demotion if the window score reached the threshold.
func (c *Controller) RecordRollback() (Move, bool) {
	c.stats.Rollbacks++
	from := c.ladder.Level
	return c.move(from, c.ladder.Fault(c.policy, 1))
}

// RecordHostFault feeds one host fault — a worker panic, watchdog kill or
// rejected poisoned result (weight HostFaultWeight) — and reports a
// demotion if due.
func (c *Controller) RecordHostFault() (Move, bool) {
	c.stats.HostFaults++
	from := c.ladder.Level
	return c.move(from, c.ladder.Fault(c.policy, c.policy.MaxWeight))
}
