// Package compilequeue is the host-side machinery behind dynopt's
// queued compilation: one process-wide worker pool that runs pure compile
// jobs off the dispatch path. It also keeps Key, a 64-bit FNV-1a fold
// that only the benchmark's lookup replay (bench/replay.go) still uses to
// key a codecache.Cache; dynopt keys its caches by its exact compile
// input instead.
//
// Determinism discipline: nothing in this package makes a *simulated*
// decision. Workers execute pure functions over immutable inputs built on
// the simulation thread; every observable choice — what to enqueue, when a
// result installs, cache lookups and inserts — happens on the simulation
// thread at points fixed by the simulated clock. The pool's size and
// scheduling therefore change only host wall time, never a single
// simulated cycle, stat, or telemetry byte.
package compilequeue

import (
	"runtime"
	"sync"
)

// jobs feeds the process's compile workers: runtime.GOMAXPROCS(0) of
// them, started by the first Submit and never stopped. The buffer only
// decouples the submitting threads from worker scheduling; queue
// *semantics* (ordering, install points) live in each caller's pending
// list, so its size is not observable.
var jobs = sync.OnceValue(func() chan func() {
	n := runtime.GOMAXPROCS(0)
	ch := make(chan func(), 4*n)
	for range n {
		go func() {
			for fn := range ch {
				runJob(fn)
			}
		}()
	}
	return ch
})

// Submit hands a job to the process's compile workers. It may block
// briefly when every worker is busy and the submission buffer is full; it
// never drops a job. Completion signalling (and any result hand-off) is
// the job's own business: dynopt closes a per-job channel that the
// install point blocks on, and waits for its own jobs at the end of a run.
func Submit(fn func()) { jobs() <- fn }

// runJob executes one job behind the panic backstop. Workers are a fault
// domain: a panicking job is recovered instead of killing its worker
// goroutine (and with it the process), and the job is simply over — any
// completion channel it owned stays unclosed. Callers that need the panic
// value — dynopt converts it into a failed-compile event — wrap their own
// recover around the job; this one is the backstop for jobs that don't.
func runJob(fn func()) {
	defer func() { _ = recover() }()
	fn()
}

// Key is a 64-bit FNV-1a hash of the words folded into it. Equal fold
// sequences give equal keys, but a hash can collide, so nothing that
// installs code is keyed by it; the benchmark's lookup replay times
// codecache lookups with it.
type Key uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// NewKey returns the hash seed.
func NewKey() Key { return Key(fnvOffset64) }

// Word folds one 64-bit word into the hash, byte by byte (FNV-1a).
func (k Key) Word(v uint64) Key {
	h := uint64(k)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return Key(h)
}

// Int folds a signed word.
func (k Key) Int(v int64) Key { return k.Word(uint64(v)) }

// Bool folds a flag.
func (k Key) Bool(b bool) Key {
	if b {
		return k.Word(1)
	}
	return k.Word(0)
}
