package dynopt

import (
	"reflect"
	"testing"

	"smarq/internal/alias"
	"smarq/internal/codecache"
	"smarq/internal/guest"
	"smarq/internal/workload"
)

// sampleCompileInput runs a short SMARQ system and snapshots the compile
// input of one region it formed.
func sampleCompileInput(t *testing.T) *compileInput {
	t.Helper()
	sys := New(aliasingProgram(800, 7), &guest.State{}, guest.NewMemory(1<<16), ConfigSMARQ(64))
	if _, err := sys.Run(40_000); err != nil {
		t.Fatal(err)
	}
	for e := range sys.disp {
		if rr := sys.disp[e].rec; rr == nil || rr.sb == nil {
			continue
		}
		in, err := sys.newCompileInput(e)
		if err != nil {
			t.Fatal(err)
		}
		return in.snapshot()
	}
	t.Fatal("run formed no superblocks")
	return nil
}

// TestMemoKeyZeroAllocs pins content-hash key construction at zero heap
// allocations: memoKey runs on the dispatch path at every enqueue, so the
// sorted blacklist/pin encodings must come out of the pooled scratch, not
// fresh slices. The blacklist and pin sets are deliberately nonempty —
// the sorted encodings are the only part of the fold that ever allocated.
func TestMemoKeyZeroAllocs(t *testing.T) {
	in := sampleCompileInput(t)
	in.blacklist = alias.Blacklist{
		alias.MakePair(3, 1): true,
		alias.MakePair(2, 5): true,
		alias.MakePair(0, 4): true,
	}
	in.scfg.PinnedOps = map[int]bool{9: true, 2: true, 5: true}

	want := memoKey(in)
	allocs := testing.AllocsPerRun(200, func() {
		if got := memoKey(in); got != want {
			t.Fatalf("memo key unstable: %#x != %#x", got, want)
		}
	})
	// Under the race detector sync.Pool drops a fraction of Puts, so the
	// pooled scratch occasionally reallocates; the exact-zero pin only
	// holds in a normal build.
	budget := 0.0
	if raceEnabled {
		budget = 2
	}
	if allocs > budget {
		t.Errorf("memoKey allocates %.1f times per call, want <= %.0f", allocs, budget)
	}
}

// TestMemoKeyFoldsMachine requires every field of the machine model to
// reach the memo key, so a field added to vliw.Config cannot silently
// fall out of it.
func TestMemoKeyFoldsMachine(t *testing.T) {
	in := sampleCompileInput(t)
	base := memoKey(in)
	m := reflect.ValueOf(&in.scfg.Machine).Elem()
	for i := 0; i < m.NumField(); i++ {
		f := m.Field(i)
		f.SetInt(f.Int() + 1)
		if memoKey(in) == base {
			t.Errorf("vliw.Config.%s does not reach the memo key", m.Type().Field(i).Name)
		}
		f.SetInt(f.Int() - 1)
	}
}

// TestSharedCacheKeysOnMachine runs tenants with different machine
// models, one after another, over one shared compile cache. Each
// must land on exactly the cycles, registers and memory of its solo run
// with a private cache: a tenant never installs code compiled for
// another machine. The third tenant repeats the first one's machine, so
// the cache must still serve it hits.
func TestSharedCacheKeysOnMachine(t *testing.T) {
	var bm workload.Benchmark
	for _, b := range workload.Suite() {
		if b.Name == "swim" {
			bm = b
		}
	}
	run := func(memLat int, cache *CodeCache) *System {
		cfg := ConfigSMARQ(64)
		cfg.Machine.MemLat = memLat
		cfg.Compile.Workers = 1
		cfg.Compile.SharedCache = cache
		sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
		if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
			t.Fatalf("MemLat %d: halted=%v err=%v", memLat, halted, err)
		}
		return sys
	}
	solo := map[int]*System{}
	for _, memLat := range []int{9, 3} {
		solo[memLat] = run(memLat, NewCodeCache(codecache.Options{}))
	}
	if solo[9].Stats.TotalCycles == solo[3].Stats.TotalCycles {
		t.Fatal("the two machine models run in the same cycles; the test cannot tell them apart")
	}
	shared := NewCodeCache(codecache.Options{})
	for _, memLat := range []int{3, 9, 3} {
		got, want := run(memLat, shared), solo[memLat]
		if got.Stats.TotalCycles != want.Stats.TotalCycles {
			t.Errorf("MemLat %d on the shared cache: %d cycles, solo %d", memLat, got.Stats.TotalCycles, want.Stats.TotalCycles)
		}
		if *got.State() != *want.State() || got.Mem().Digest() != want.Mem().Digest() {
			t.Errorf("MemLat %d on the shared cache: final state differs from the solo run", memLat)
		}
	}
	if st := shared.Stats(); st.Hits == 0 {
		t.Errorf("the repeated tenant drew no cache hits: %+v", st)
	}
}
