package health

import "fmt"

// Policy tunes a Ladder. It travels by value into every Ladder call, so a
// ladder held in each of many records stores no copy of it.
type Policy struct {
	// Floor is the deepest level. A fault there is still recorded but
	// never demotes further.
	Floor int
	// Window is how many recent observations the fault score sums.
	Window int
	// DemoteThreshold demotes one level when the window score reaches it.
	DemoteThreshold int
	// Storm demotes one level after this many consecutive faults,
	// whatever the window score; 0 turns the storm detector off.
	Storm int
	// MaxWeight is the heaviest weight a caller passes to Fault. A window
	// slot is one byte, so it is at most 255.
	MaxWeight int
	// PromoteAfter promotes one level after this many consecutive clean
	// observations, scaled by the backoff multiplier.
	PromoteAfter int
	// BackoffFactor multiplies the promotion backoff on every demotion;
	// at least 2, so oscillation damps.
	BackoffFactor int
	// MaxBackoff caps the multiplier: past it the ladder is sticky and
	// never promotes again, which bounds how often it can move.
	MaxBackoff int
}

// Validate rejects tunings that are nonsensical or can never demote on
// the window score.
func (p Policy) Validate() error {
	switch {
	case p.Window <= 0:
		return fmt.Errorf("health: Window %d, want > 0", p.Window)
	case p.MaxWeight <= 0 || p.MaxWeight > 255:
		return fmt.Errorf("health: heaviest observation weight %d, want in [1, 255]", p.MaxWeight)
	case p.DemoteThreshold <= 0:
		return fmt.Errorf("health: DemoteThreshold %d, want > 0", p.DemoteThreshold)
	case p.DemoteThreshold > p.Window*p.MaxWeight:
		return fmt.Errorf("health: DemoteThreshold %d can never be reached: Window %d × heaviest observation weight %d scores at most %d",
			p.DemoteThreshold, p.Window, p.MaxWeight, p.Window*p.MaxWeight)
	case p.PromoteAfter <= 0:
		return fmt.Errorf("health: PromoteAfter %d, want > 0", p.PromoteAfter)
	case p.BackoffFactor < 2:
		return fmt.Errorf("health: BackoffFactor %d, want >= 2", p.BackoffFactor)
	case p.MaxBackoff < 1:
		return fmt.Errorf("health: MaxBackoff %d, want >= 1", p.MaxBackoff)
	}
	return nil
}

// Ladder is the hysteresis state machine behind both degradation
// ladders: the per-region speculation ladder (internal/dynopt) and the
// system health Controller. It keeps a sliding window of weighted
// observations (0 clean, a positive weight for a fault), demotes one
// level when the window score or a run of consecutive faults crosses the
// Policy, and promotes one level after a clean run whose required length
// multiplies on every demotion. Level 0 is the top; higher levels degrade
// further. Make one with NewLadder.
type Ladder[L ~int] struct {
	// Level is the current rung, 0 (top) through Policy.Floor.
	Level L
	// Sticky is set once Backoff passes Policy.MaxBackoff; callers may
	// also set it to cap a ladder for good. A sticky ladder never
	// promotes again.
	Sticky bool
	// Demotions and Promotions count the ladder's moves.
	Demotions  int
	Promotions int
	// Backoff is the promotion backoff multiplier.
	Backoff int

	// window is a ring of the last observation weights (zero-filled
	// until it wraps); score is their sum.
	window []uint8
	wpos   int
	score  int
	consec int // consecutive faults (the storm detector)
	clean  int // consecutive clean observations
}

// NewLadder returns a ladder at level 0 with an empty window of p.Window
// slots.
func NewLadder[L ~int](p Policy) Ladder[L] {
	return Ladder[L]{window: make([]uint8, p.Window), Backoff: 1}
}

// Clean records one clean observation and reports whether it completed a
// promotion run: PromoteAfter × Backoff consecutive cleans lift a ladder
// that is neither sticky nor at the top one level.
func (l *Ladder[L]) Clean(p Policy) bool {
	l.push(0)
	l.consec = 0
	l.clean++
	if l.Sticky || l.Level == 0 || l.clean < p.PromoteAfter*l.Backoff {
		return false
	}
	l.Level--
	l.Promotions++
	l.reset()
	return true
}

// Fault records one fault of the given weight, in [1, p.MaxWeight], and
// reports whether it demoted the ladder one level: the window score
// reached DemoteThreshold, or Storm consecutive faults landed. At the
// floor the fault is recorded and nothing moves.
func (l *Ladder[L]) Fault(p Policy, weight int) bool {
	l.push(uint8(weight))
	l.consec++
	l.clean = 0
	if int(l.Level) >= p.Floor {
		return false
	}
	if l.score < p.DemoteThreshold && (p.Storm == 0 || l.consec < p.Storm) {
		return false
	}
	l.demote(p)
	return true
}

// DemoteTo walks the ladder down to at least level to, one demotion (and
// one backoff step) per rung, and returns how many rungs it moved.
func (l *Ladder[L]) DemoteTo(p Policy, to L) int {
	n := 0
	for ; l.Level < to; n++ {
		l.demote(p)
	}
	return n
}

// ResetRun breaks the clean run without recording an observation: the
// window, its score and the fault streak are left alone.
func (l *Ladder[L]) ResetRun() { l.clean = 0 }

// demote moves one level down and multiplies the backoff; past
// MaxBackoff the ladder goes sticky.
func (l *Ladder[L]) demote(p Policy) {
	l.Level++
	l.Demotions++
	l.reset()
	l.Backoff *= p.BackoffFactor
	if l.Backoff > p.MaxBackoff {
		l.Sticky = true
	}
}

// push slides one observation weight into the window.
func (l *Ladder[L]) push(w uint8) {
	l.score += int(w) - int(l.window[l.wpos])
	l.window[l.wpos] = w
	l.wpos = (l.wpos + 1) % len(l.window)
}

// reset empties the window and both runs, as every move does.
func (l *Ladder[L]) reset() {
	clear(l.window)
	l.wpos, l.score, l.consec, l.clean = 0, 0, 0, 0
}
