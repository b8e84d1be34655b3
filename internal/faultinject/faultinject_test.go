package faultinject

import (
	"math"
	"sync"
	"testing"

	"smarq/internal/guest"
)

var guestClasses = []Class{SpuriousAlias, GuardFail, CompileFail, CorruptState}

// drawSequence records which probes fire over n rounds of one draw of
// each guest class at each of a few region entries, each entry with its
// own ordinals.
func drawSequence(in *Injector, st *guest.State, n int) []bool {
	var seq []bool
	var ords [3]Ordinals
	for i := 0; i < n; i++ {
		for e := range ords {
			o := &ords[e]
			_, a := in.Draw(SpuriousAlias, e, o)
			_, g := in.Draw(GuardFail, e, o)
			_, c := in.Draw(CompileFail, e, o)
			_, x := in.Corrupt(e, o, st)
			seq = append(seq, a, g, c, x)
		}
	}
	return seq
}

// TestDeterministicPerSeed: equal seeds replay the exact injection
// pattern; a different seed diverges. This is the property `smarq-run
// -chaos-seed` relies on to reproduce CI chaos failures.
func TestDeterministicPerSeed(t *testing.T) {
	cfg := Default(42)
	cfg.CorruptRate = 0.1
	a := drawSequence(New(cfg), &guest.State{}, 500)
	b := drawSequence(New(cfg), &guest.State{}, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	cfg.Seed = 43
	c := drawSequence(New(cfg), &guest.State{}, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 6000-draw sequences")
	}
}

// TestZeroConfigNeverFires: a zero Config fires nothing, and a class
// whose rate is 0 draws nothing, so its ordinals stay where they were.
func TestZeroConfigNeverFires(t *testing.T) {
	var cfg Config
	if cfg.Enabled() {
		t.Fatal("zero Config reports Enabled")
	}
	in := New(cfg)
	st := &guest.State{}
	for _, fired := range drawSequence(in, st, 200) {
		if fired {
			t.Fatal("zero-rate injector fired")
		}
	}
	if in.Counts() != (Counts{}) {
		t.Errorf("counts = %+v, want zero", in.Counts())
	}
	if *st != (guest.State{}) {
		t.Error("zero-rate injector touched the state")
	}

	in = New(Default(1)) // CorruptState and the host classes at rate 0
	var o Ordinals
	for i := 0; i < 50; i++ {
		in.Draw(SpuriousAlias, 2, &o)
		in.Corrupt(2, &o, st)
		in.Draw(WorkerPanic, 2, &o)
		in.Poison(2, &o)
	}
	if want := (Ordinals{SpuriousAlias: 50}); o != want {
		t.Errorf("ordinals %v after 50 rounds, want %v: a rate-0 class drew", o, want)
	}
}

func TestCountsMatchFirings(t *testing.T) {
	cfg := Config{Seed: 7, SpuriousAliasRate: 0.5, GuardFailRate: 0.5, CompileFailRate: 0.5, CorruptRate: 0.5}
	in := New(cfg)
	st := &guest.State{}
	var want Counts
	var o Ordinals
	for i := 0; i < 400; i++ {
		if _, fired := in.Draw(SpuriousAlias, 1, &o); fired {
			want.SpuriousAliases++
		}
		if _, fired := in.Draw(GuardFail, 1, &o); fired {
			want.GuardFails++
		}
		if _, fired := in.Draw(CompileFail, 1, &o); fired {
			want.CompileFails++
		}
		if _, fired := in.Corrupt(1, &o, st); fired {
			want.Corruptions++
		}
	}
	if got := in.Counts(); got != want {
		t.Errorf("Counts() = %+v, want %+v", got, want)
	}
	if want.SpuriousAliases == 0 || want.Corruptions == 0 {
		t.Error("rate-0.5 injector never fired in 400 rounds")
	}
}

// decisions returns whether each of the first n draws of class c fires
// at each entry below entries, by entry and then ordinal.
func decisions(in *Injector, c Class, entries, n int) []bool {
	out := make([]bool, 0, entries*n)
	for e := 0; e < entries; e++ {
		var o Ordinals
		for i := 0; i < n; i++ {
			_, fired := in.Draw(c, e, &o)
			out = append(out, fired)
		}
	}
	return out
}

// TestFiredRateWithinBinomialBound: over 100,000 (entry, ordinal) keys,
// each class fires at its configured rate, within five standard
// deviations of the binomial count, for several rates and seeds.
func TestFiredRateWithinBinomialBound(t *testing.T) {
	const entries, perEntry = 200, 500
	const n = entries * perEntry
	for _, seed := range []int64{1, 7, -3} {
		for _, rate := range []float64{0.02, 0.05, 0.5} {
			cfg := Config{Seed: seed, SpuriousAliasRate: rate, GuardFailRate: rate, CompileFailRate: rate,
				CorruptRate: rate, WorkerPanicRate: rate, CompileHangRate: rate, PoisonResultRate: rate}
			in := New(cfg)
			for c := range NumClasses {
				fired := 0
				for _, f := range decisions(in, c, entries, perEntry) {
					if f {
						fired++
					}
				}
				mean := n * rate
				if bound := 5 * math.Sqrt(mean*(1-rate)); math.Abs(float64(fired)-mean) > bound {
					t.Errorf("seed %d class %d at rate %v: %d of %d fired, want %.0f ± %.0f",
						seed, c, rate, fired, n, mean, bound)
				}
			}
		}
	}
}

// TestDefaultHostKeepsGuestDecisions: adding the host classes changes no
// guest-class decision, since each class draws with its own key and
// ordinals.
func TestDefaultHostKeepsGuestDecisions(t *testing.T) {
	for _, seed := range []int64{1, 7, 11} {
		plain, host := New(Default(seed)), New(DefaultHost(seed))
		for _, c := range guestClasses {
			a, b := decisions(plain, c, 64, 300), decisions(host, c, 64, 300)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d class %d: Default and DefaultHost differ at key %d", seed, c, i)
				}
			}
		}
	}
}

// TestDrawIsAFunctionOfItsSite: a draw's outcome depends on its class,
// entry and ordinal only. Draws made in another order, interleaved with
// other classes and entries, fire exactly where the in-order draws fire.
func TestDrawIsAFunctionOfItsSite(t *testing.T) {
	cfg := DefaultHost(9)
	cfg.CorruptRate = 0.1 // every class draws
	const entries, n = 16, 200
	want := map[Class][]bool{}
	for c := range NumClasses {
		want[c] = decisions(New(cfg), c, entries, n)
	}
	in := New(cfg)
	var ords [entries]Ordinals
	for i := 0; i < n; i++ {
		for e := entries - 1; e >= 0; e-- {
			for c := NumClasses - 1; c < NumClasses; c-- {
				ord, fired := in.Draw(c, e, &ords[e])
				if ord != uint32(i) {
					t.Fatalf("draw %d of class %d at B%d has ordinal %d", i, c, e, ord)
				}
				if fired != want[c][e*n+i] {
					t.Fatalf("class %d, B%d, ordinal %d: fired %v out of order, %v in order", c, e, i, fired, want[c][e*n+i])
				}
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := []Config{{}, Default(1), {SpuriousAliasRate: 1, GuardFailRate: 1, CompileFailRate: 1, CorruptRate: 1}}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{SpuriousAliasRate: -0.1},
		{GuardFailRate: 1.5},
		{CompileFailRate: math.NaN()},
		{CorruptRate: math.Inf(1)},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

func TestCorruptStatePerturbsOneRegister(t *testing.T) {
	in := New(Config{Seed: 3, CorruptRate: 1})
	hit := map[int]bool{}
	var o Ordinals
	for i := 0; i < 200; i++ {
		st := &guest.State{}
		if _, fired := in.Corrupt(4, &o, st); !fired {
			t.Fatal("rate-1 Corrupt did not fire")
		}
		changed := 0
		for r := 0; r < guest.NumRegs; r++ {
			if st.R[r] != 0 {
				changed++
				hit[r] = true
			}
		}
		if changed != 1 || st.R[0] != 0 {
			t.Fatalf("corruption changed %d registers (r0 = %d), want exactly 1 other than r0", changed, st.R[0])
		}
	}
	// The register varies with the draw.
	if len(hit) < guest.NumRegs/2 {
		t.Errorf("200 corruptions hit only %d distinct registers", len(hit))
	}
}

// hostDrawSequence records the host-fault probes (panic, hang, poison
// mode) over n rounds at a few region entries.
func hostDrawSequence(in *Injector, n int) []int {
	var seq []int
	var ords [3]Ordinals
	b := func(_ uint32, v bool) int {
		if v {
			return 1
		}
		return 0
	}
	for i := 0; i < n; i++ {
		for e := range ords {
			o := &ords[e]
			_, mode := in.Poison(e, o)
			seq = append(seq, b(in.Draw(WorkerPanic, e, o)), b(in.Draw(CompileHang, e, o)), int(mode))
		}
	}
	return seq
}

// TestHostProbesDeterministicPerSeed extends the seed-replay guarantee to
// the host fault classes: equal seeds replay the exact host-fault
// pattern — including which poison mode each firing selects — and a
// different seed diverges.
func TestHostProbesDeterministicPerSeed(t *testing.T) {
	cfg := DefaultHost(42)
	a := hostDrawSequence(New(cfg), 500)
	b := hostDrawSequence(New(cfg), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at host draw %d", i)
		}
	}
	cfg.Seed = 43
	c := hostDrawSequence(New(cfg), 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical 4500-draw host sequences")
	}
}

// TestHostProbesDeterministicAcrossGoroutines: each injector is owned by
// one simulation thread, but host scheduling must not be able to perturb
// the draw sequence — many goroutines each running a same-seed injector
// concurrently (under -race in CI) must all produce the canonical
// sequence.
func TestHostProbesDeterministicAcrossGoroutines(t *testing.T) {
	cfg := DefaultHost(99)
	want := hostDrawSequence(New(cfg), 300)
	const goroutines = 8
	got := make([][]int, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = hostDrawSequence(New(cfg), 300)
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for i := range want {
			if got[g][i] != want[i] {
				t.Fatalf("goroutine %d diverged from canonical sequence at draw %d", g, i)
			}
		}
	}
}

// TestPoisonModeAlternates: the poison probe alternates which validation
// layer it attacks with the region's poison ordinal, starting with the
// checksum layer, so a long chaos run exercises both.
func TestPoisonModeAlternates(t *testing.T) {
	in := New(Config{Seed: 1, PoisonResultRate: 1})
	var o Ordinals
	for i := 0; i < 6; i++ {
		want := PoisonChecksum
		if i%2 == 1 {
			want = PoisonStructure
		}
		if ord, got := in.Poison(3, &o); got != want || ord != uint32(i) {
			t.Fatalf("firing %d: mode %d at ordinal %d, want %d at %d", i, got, ord, want, i)
		}
	}
	if in.Counts().PoisonedResults != 6 {
		t.Errorf("PoisonedResults = %d, want 6", in.Counts().PoisonedResults)
	}
}

// TestHostEnabled: the host classes flip both HostEnabled and Enabled,
// each class on its own.
func TestHostEnabled(t *testing.T) {
	if (Config{}).HostEnabled() {
		t.Error("zero Config reports HostEnabled")
	}
	if Default(1).HostEnabled() {
		t.Error("guest-only Default reports HostEnabled")
	}
	for name, c := range map[string]Config{
		"panic":  {WorkerPanicRate: 0.1},
		"hang":   {CompileHangRate: 0.1},
		"poison": {PoisonResultRate: 0.1},
	} {
		if !c.HostEnabled() || !c.Enabled() {
			t.Errorf("%s rate alone: HostEnabled=%v Enabled=%v, want true/true",
				name, c.HostEnabled(), c.Enabled())
		}
	}
	dh := DefaultHost(5)
	if err := dh.Validate(); err != nil {
		t.Errorf("DefaultHost invalid: %v", err)
	}
	if !dh.HostEnabled() {
		t.Error("DefaultHost not HostEnabled")
	}
}

// TestValidateHostRates: the host rates are range-checked like the guest
// rates.
func TestValidateHostRates(t *testing.T) {
	bad := []Config{
		{WorkerPanicRate: -0.1},
		{CompileHangRate: 1.5},
		{PoisonResultRate: math.NaN()},
		{CompileHangRate: math.Inf(1)},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Errorf("Validate(%+v) accepted", c)
		}
	}
}

// TestSnapshotZeroLengthMemory: digesting zero-length memory must not
// fault, and state-only divergence is still caught.
func TestSnapshotZeroLengthMemory(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(0)
	snap := Capture(st, mem)
	if err := snap.Verify(st, mem); err != nil {
		t.Errorf("clean Verify over empty memory: %v", err)
	}
	st.R[1] = 1
	if snap.Verify(st, mem) == nil {
		t.Error("register divergence not caught with empty memory")
	}
}

// TestSnapshotOverlappingRegions models two nested rollback regions whose
// write sets overlap: each snapshot independently fingerprints the same
// overlapping bytes, so restoring the outer checkpoint satisfies the
// outer snapshot while the inner one (taken mid-region) still reports the
// divergence it saw.
func TestSnapshotOverlappingRegions(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(128)
	_ = mem.Store(16, 8, 1) // both regions cover [16, 24)
	outer := Capture(st, mem)

	_ = mem.Store(16, 8, 2) // outer region's speculative write
	inner := Capture(st, mem)

	_ = mem.Store(16, 8, 3) // inner region's overlapping write
	if outer.Verify(st, mem) == nil || inner.Verify(st, mem) == nil {
		t.Fatal("overlapping write invisible to a snapshot")
	}

	// Roll the whole overlap back to the outer checkpoint: the outer
	// snapshot must pass again, and the inner one — whose checkpoint
	// included the now-undone outer write — must keep failing.
	_ = mem.Store(16, 8, 1)
	if err := outer.Verify(st, mem); err != nil {
		t.Errorf("outer rollback over the overlap did not restore: %v", err)
	}
	if inner.Verify(st, mem) == nil {
		t.Error("inner snapshot accepted the outer checkpoint despite the overlapping undo")
	}
}

func TestSnapshotVerifyCleanRoundTrip(t *testing.T) {
	st := &guest.State{}
	st.R[3] = 17
	st.F[4] = math.NaN() // bit-pattern comparison must tolerate NaN
	mem := guest.NewMemory(128)
	_ = mem.Store(16, 8, 99)
	snap := Capture(st, mem)
	if err := snap.Verify(st, mem); err != nil {
		t.Errorf("clean Verify: %v", err)
	}
}

func TestSnapshotVerifyCatchesDivergence(t *testing.T) {
	mkState := func() (*guest.State, *guest.Memory) {
		st := &guest.State{}
		st.R[2] = 5
		st.F[1] = 2.5
		mem := guest.NewMemory(64)
		_ = mem.Store(0, 8, 7)
		return st, mem
	}

	st, mem := mkState()
	snap := Capture(st, mem)

	st.R[2] = 6
	if snap.Verify(st, mem) == nil {
		t.Error("integer register divergence not caught")
	}

	st, mem = mkState()
	snap = Capture(st, mem)
	st.F[1] = -2.5
	if snap.Verify(st, mem) == nil {
		t.Error("float register divergence not caught")
	}

	st, mem = mkState()
	snap = Capture(st, mem)
	_ = mem.Store(32, 1, 1)
	if snap.Verify(st, mem) == nil {
		t.Error("memory divergence not caught")
	}
}
