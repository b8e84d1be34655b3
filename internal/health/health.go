// Package health is the system-scope graceful-degradation controller: it
// does for the whole dynamic optimization system what the per-region
// recovery ladder (internal/dynopt/recovery.go) does for one region.
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
// while quarantined are permanently barred from compiling). Re-promotion
// needs a sustained run of clean observations, scaled by an exponential
// backoff that doubles on every demotion — the hysteresis that keeps a
// flapping host from oscillating — and past MaxBackoff the controller
// goes sticky and never promotes again.
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
	// inside the window reaches it.
	DemoteThreshold int
	// HostFaultWeight is how many window points one host fault scores
	// (rollbacks score 1): host faults are rarer and individually more
	// alarming than rollbacks.
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

// Validate rejects nonsensical tunings (a zero Config is valid: disabled).
func (c Config) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.Window <= 0:
		return fmt.Errorf("health: Window %d, want > 0", c.Window)
	case c.DemoteThreshold <= 0:
		return fmt.Errorf("health: DemoteThreshold %d, want > 0", c.DemoteThreshold)
	case c.HostFaultWeight <= 0:
		return fmt.Errorf("health: HostFaultWeight %d, want > 0", c.HostFaultWeight)
	case c.PromoteAfter <= 0:
		return fmt.Errorf("health: PromoteAfter %d, want > 0", c.PromoteAfter)
	case c.BackoffFactor < 2:
		return fmt.Errorf("health: BackoffFactor %d, want >= 2", c.BackoffFactor)
	case c.MaxBackoff < 1:
		return fmt.Errorf("health: MaxBackoff %d, want >= 1", c.MaxBackoff)
	}
	return nil
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

// Controller is the sliding-window health state machine. Not safe for
// concurrent use; the simulation thread owns it.
type Controller struct {
	cfg   Config
	level Level
	// window is a ring of observation weights (0 clean, 1 rollback,
	// HostFaultWeight host fault); score is their sum.
	window     []int
	wpos, wlen int
	score      int
	clean      int // consecutive clean observations
	backoff    int
	sticky     bool
	stats      Stats
}

// New returns a controller at Normal. cfg must be Enabled and Valid.
func New(cfg Config) *Controller {
	return &Controller{cfg: cfg, window: make([]int, cfg.Window), backoff: 1}
}

// Level returns the current degradation level.
func (c *Controller) Level() Level { return c.level }

// Sticky reports whether the promotion backoff is exhausted.
func (c *Controller) Sticky() bool { return c.sticky }

// Stats returns the accounting with the end-of-run fields filled.
func (c *Controller) Stats() Stats {
	st := c.stats
	st.FinalLevel = c.level
	st.Sticky = c.sticky
	return st
}

// push slides one observation weight into the window.
func (c *Controller) push(weight int) {
	if c.wlen == len(c.window) {
		c.score -= c.window[c.wpos]
	} else {
		c.wlen++
	}
	c.window[c.wpos] = weight
	c.score += weight
	c.wpos = (c.wpos + 1) % len(c.window)
}

func (c *Controller) resetWindow() {
	for i := range c.window {
		c.window[i] = 0
	}
	c.wpos, c.wlen, c.score, c.clean = 0, 0, 0, 0
}

// demoteIfDue walks one level down when the window score crossed the
// threshold, doubling the promotion backoff (sticky past MaxBackoff).
func (c *Controller) demoteIfDue() (Move, bool) {
	if c.score < c.cfg.DemoteThreshold || c.level == Quarantine {
		return Move{}, false
	}
	from := c.level
	c.level++
	c.stats.Demotions++
	c.stats.LevelEntries[c.level]++
	c.resetWindow()
	c.backoff *= c.cfg.BackoffFactor
	if c.backoff > c.cfg.MaxBackoff {
		c.sticky = true
	}
	return Move{From: from, To: c.level}, true
}

// RecordClean feeds one clean observation (a committed dispatch, or — at
// CompileOff and above, where nothing dispatches — quiet interpreted
// progress) and reports a promotion if one was earned: PromoteAfter ×
// backoff consecutive cleans, unless sticky.
func (c *Controller) RecordClean() (Move, bool) {
	c.stats.Cleans++
	c.push(0)
	c.clean++
	if c.sticky || c.level == Normal || c.clean < c.cfg.PromoteAfter*c.backoff {
		return Move{}, false
	}
	from := c.level
	c.level--
	c.stats.Promotions++
	c.stats.LevelEntries[c.level]++
	c.resetWindow()
	return Move{From: from, To: c.level}, true
}

// RecordRollback feeds one misspeculation rollback (weight 1) and reports
// a demotion if the window score crossed the threshold.
func (c *Controller) RecordRollback() (Move, bool) {
	c.stats.Rollbacks++
	c.push(1)
	c.clean = 0
	return c.demoteIfDue()
}

// RecordHostFault feeds one host fault — a worker panic, watchdog kill or
// rejected poisoned result (weight HostFaultWeight) — and reports a
// demotion if due.
func (c *Controller) RecordHostFault() (Move, bool) {
	c.stats.HostFaults++
	c.push(c.cfg.HostFaultWeight)
	c.clean = 0
	return c.demoteIfDue()
}
