package compilequeue

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolRunsEveryJob(t *testing.T) {
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		Submit(func() {
			defer wg.Done()
			ran.Add(1)
		})
	}
	wg.Wait()
	if got := ran.Load(); got != 100 {
		t.Errorf("ran %d jobs, want 100", got)
	}
}

// TestPoolSurvivesPanickingJobs: the backstop recover must keep worker
// goroutines alive through panicking jobs — more panics than there are
// workers, and every later job still runs. An unrecovered panic would
// kill the test binary; a dead worker would leave wg.Wait hanging.
func TestPoolSurvivesPanickingJobs(t *testing.T) {
	n := 4 * runtime.GOMAXPROCS(0)
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2*n; i++ {
		wg.Add(1)
		Submit(func() {
			defer wg.Done()
			if i < n {
				panic("boom")
			}
			ran.Add(1)
		})
	}
	wg.Wait()
	if got := ran.Load(); got != int64(n) {
		t.Errorf("%d/%d non-panicking jobs ran — a worker died", got, n)
	}
}

func TestKeyDeterministic(t *testing.T) {
	build := func() Key {
		return NewKey().Word(42).Int(-7).Bool(true).Bool(false).Int(1 << 40)
	}
	if build() != build() {
		t.Error("identical fold sequences produced different keys")
	}
}

func TestKeySensitiveToEveryFold(t *testing.T) {
	base := NewKey().Word(1).Int(2).Bool(true)
	variants := map[string]Key{
		"word":       NewKey().Word(3).Int(2).Bool(true),
		"int":        NewKey().Word(1).Int(3).Bool(true),
		"bool":       NewKey().Word(1).Int(2).Bool(false),
		"extra fold": NewKey().Word(1).Int(2).Bool(true).Int(0),
		"reordered":  NewKey().Int(2).Word(1).Bool(true),
	}
	for name, k := range variants {
		if k == base {
			t.Errorf("%s variant collided with the base key", name)
		}
	}
}
