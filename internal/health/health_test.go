package health

import "testing"

func testConfig() Config {
	return Config{
		Window:          16,
		DemoteThreshold: 4,
		HostFaultWeight: 4,
		PromoteAfter:    8,
		BackoffFactor:   2,
		MaxBackoff:      8,
	}
}

func TestZeroConfigDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("zero Config must validate (disabled): %v", err)
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	if !DefaultConfig().Enabled() {
		t.Fatal("DefaultConfig not Enabled")
	}
}

func TestValidateRejectsBadTunings(t *testing.T) {
	for _, mut := range []func(*Config){
		func(c *Config) { c.Window = -1 },
		func(c *Config) { c.DemoteThreshold = 0 },
		func(c *Config) { c.HostFaultWeight = -2 },
		func(c *Config) { c.PromoteAfter = 0 },
		func(c *Config) { c.BackoffFactor = 1 },
		func(c *Config) { c.MaxBackoff = 0 },
		// A score the window can never hold: 16 slots × weight 4 = 64.
		func(c *Config) { c.DemoteThreshold = c.Window*c.HostFaultWeight + 1 },
		// A window slot is one byte.
		func(c *Config) { c.HostFaultWeight = 256 },
	} {
		c := testConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("Validate accepted bad config %+v", c)
		}
	}
	// The highest score the window can hold is reachable, so valid.
	c := testConfig()
	c.DemoteThreshold = c.Window * c.HostFaultWeight
	if err := c.Validate(); err != nil {
		t.Errorf("Validate rejected a full-window threshold: %v", err)
	}
}

// TestWalksDownAndBackUp is the hysteresis proof: a host-fault burst
// demotes one level at a time all the way to Quarantine, and a sustained
// clean run climbs all the way back to Normal — but each climb needs
// exponentially more clean observations than the last.
func TestWalksDownAndBackUp(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBackoff = 1 << 20 // never sticky in this test
	c := New(cfg)

	// One host fault scores HostFaultWeight=4, so DemoteThreshold=4 means
	// every fault demotes one level (the window resets on each move).
	for want := NoSpeculation; want <= Quarantine; want++ {
		mv, moved := c.RecordHostFault()
		if !moved || mv.To != want || mv.From != want-1 {
			t.Fatalf("fault %d: moved=%v mv=%+v, want %s->%s", want, moved, mv, want-1, want)
		}
	}
	if c.Level() != Quarantine {
		t.Fatalf("level = %s, want quarantine", c.Level())
	}
	// A fault at the bottom stays at the bottom.
	if _, moved := c.RecordHostFault(); moved {
		t.Fatal("demoted below Quarantine")
	}

	// Walk back up: backoff is 2^3 = 8 after the three demotions it takes
	// to reach the bottom, so each promotion needs 8*8 = 64 cleans
	// (backoff does not decay on promotion).
	needed := cfg.PromoteAfter * 8
	for want := CompileOff; want >= Normal; want-- {
		for i := 0; i < needed-1; i++ {
			if _, moved := c.RecordClean(); moved {
				t.Fatalf("promoted to %s after only %d cleans, want %d", c.Level(), i+1, needed)
			}
		}
		mv, moved := c.RecordClean()
		if !moved || mv.To != want {
			t.Fatalf("promotion to %s: moved=%v mv=%+v", want, moved, mv)
		}
	}
	if c.Level() != Normal {
		t.Fatalf("level = %s, want normal", c.Level())
	}
	// At Normal, cleans never promote further.
	if _, moved := c.RecordClean(); moved {
		t.Fatal("promoted above Normal")
	}

	st := c.Stats()
	if st.Demotions != 3 || st.Promotions != 3 {
		t.Fatalf("stats: %d demotions, %d promotions, want 3 and 3", st.Demotions, st.Promotions)
	}
	if st.FinalLevel != Normal || st.Sticky {
		t.Fatalf("final: %s sticky=%v", st.FinalLevel, st.Sticky)
	}
}

// TestRollbackRateDemotes proves rollbacks alone (weight 1) can demote
// once enough land inside one window, and that interleaved cleans slide
// old rollbacks out.
func TestRollbackRateDemotes(t *testing.T) {
	c := New(testConfig()) // window 16, threshold 4
	for i := 0; i < 3; i++ {
		if _, moved := c.RecordRollback(); moved {
			t.Fatalf("demoted after %d rollbacks, threshold is 4", i+1)
		}
	}
	// Push 16 cleans: the three rollbacks slide out of the window.
	for i := 0; i < 16; i++ {
		c.RecordClean()
	}
	for i := 0; i < 3; i++ {
		if _, moved := c.RecordRollback(); moved {
			t.Fatalf("stale rollbacks still in window (demoted at %d)", i+1)
		}
	}
	if mv, moved := c.RecordRollback(); !moved || mv.To != NoSpeculation {
		t.Fatalf("4th in-window rollback did not demote (mv=%+v moved=%v)", mv, moved)
	}
}

// TestStickyStopsPromotion proves the exponential backoff cap: once the
// multiplier exceeds MaxBackoff the controller never promotes again.
func TestStickyStopsPromotion(t *testing.T) {
	cfg := testConfig() // BackoffFactor 2, MaxBackoff 8
	c := New(cfg)
	// Three demotions reach the bottom with backoff 2^3 = 8, still within
	// MaxBackoff: the ladder alone cannot exhaust the backoff.
	for i := 0; i < 3; i++ {
		c.RecordHostFault()
	}
	if c.Stats().Sticky {
		t.Fatal("sticky after a one-way walk to the bottom")
	}
	// Flap once: climb one level (8*8 cleans), then fault again. The
	// re-demotion pushes backoff to 16 > MaxBackoff → sticky forever.
	for i := 0; i < cfg.PromoteAfter*8; i++ {
		c.RecordClean()
	}
	if c.Level() != CompileOff {
		t.Fatalf("level = %s after clean run, want compile-off", c.Level())
	}
	c.RecordHostFault()
	if !c.Stats().Sticky {
		t.Fatal("controller not sticky after backoff exhaustion")
	}
	for i := 0; i < cfg.PromoteAfter*1000; i++ {
		if _, moved := c.RecordClean(); moved {
			t.Fatal("sticky controller promoted")
		}
	}
	if c.Level() != Quarantine {
		t.Fatalf("level = %s, want quarantine forever", c.Level())
	}
}

// TestCleanRunResetsOnFault proves a fault interrupts a promotion streak.
func TestCleanRunResetsOnFault(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	c.RecordHostFault() // → NoSpeculation, backoff 2, need 16 cleans
	for i := 0; i < 15; i++ {
		c.RecordClean()
	}
	c.RecordRollback() // resets the streak (score 1 < threshold: no demote)
	if c.Level() != NoSpeculation {
		t.Fatalf("level = %s after single rollback", c.Level())
	}
	for i := 0; i < 15; i++ {
		if _, moved := c.RecordClean(); moved {
			t.Fatal("promotion streak survived the rollback")
		}
	}
	if _, moved := c.RecordClean(); !moved {
		t.Fatal("fresh 16-clean run did not promote")
	}
}
