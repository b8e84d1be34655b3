package aliashw

import (
	"math/rand"
	"sort"
	"testing"
)

// specQueue is a literal transcription of [ORDERED-ALIAS-DETECTION-RULE]
// and §3.2/§3.3: it keeps every live register in a map keyed by absolute
// order and applies the rule text directly, with none of OrderedQueue's
// circular-buffer machinery. The model-based test below drives both with
// random operation streams and requires identical observable behaviour.
type specQueue struct {
	n       int
	base    int
	entries map[int]specEntry // absolute order -> entry
	// checked counts the comparisons the rule makes when a check visits
	// the registers it covers in ascending order and stops at the first
	// conflict: the Checked() the queue must report.
	checked uint64
}

type specEntry struct {
	lo, hi  uint64
	byStore bool
	origin  int
}

func newSpecQueue(n int) *specQueue {
	return &specQueue{n: n, entries: map[int]specEntry{}}
}

func (s *specQueue) OnMem(opID int, isStore, p, c bool, offset int, _ uint16, lo, hi uint64) *Conflict {
	if c {
		// "X checks Y iff ... the alias register allocated to X is not
		// later than the alias register allocated to Y": scan every live
		// register whose order >= base+offset, earliest first for a
		// deterministic witness.
		var covered []int
		for order, e := range s.entries {
			if order < s.base+offset {
				continue
			}
			if !isStore && !e.byStore {
				continue // loads do not check load-set registers
			}
			covered = append(covered, order)
		}
		sort.Ints(covered)
		for _, order := range covered {
			s.checked++
			if e := s.entries[order]; lo < e.hi && e.lo < hi {
				return &Conflict{Checker: opID, Origin: e.origin}
			}
		}
	}
	if p {
		s.entries[s.base+offset] = specEntry{lo: lo, hi: hi, byStore: isStore, origin: opID}
	}
	return nil
}

func (s *specQueue) Rotate(n int) {
	for i := 0; i < n; i++ {
		delete(s.entries, s.base+i)
	}
	s.base += n
}

func (s *specQueue) AMov(src, dst int) {
	e, ok := s.entries[s.base+src]
	delete(s.entries, s.base+src)
	if ok && src != dst {
		s.entries[s.base+dst] = e
	}
}

func (s *specQueue) Reset() {
	s.base = 0
	s.entries = map[int]specEntry{}
}

// maxLiveOffset returns the highest live offset, for keeping the random
// stream within the physical window.
func (s *specQueue) maxLiveOffset() int {
	max := -1
	for order := range s.entries {
		if off := order - s.base; off > max {
			max = off
		}
	}
	return max
}

// TestOrderedQueueMatchesSpec drives OrderedQueue and the literal-rule
// model with identical random streams of set/check/rotate/AMov/reset
// operations and demands identical conflict reports and Checked() counts
// after every operation.
//
// The stream respects the software contract the allocator guarantees
// (offsets < N; rotation never past a live register that will still be
// used — here approximated by rotating at most past the lowest offsets),
// which is exactly the regime the hardware is specified for. It also
// breaks the contract: now and then an AMov names a source or
// destination at or past the queue size, and a few rotations follow.
// The model says nothing about those, so from such an AMov to the next
// reset only the queue's own consistency is exercised. The sizes run
// from 2 registers to 100.
func TestOrderedQueueMatchesSpec(t *testing.T) {
	for _, n := range []int{2, 4, 8, 64, 100} {
		rng := rand.New(rand.NewSource(int64(77 + n)))
		q := NewOrderedQueue(n)
		s := newSpecQueue(n)
		inContract := true
		rotations := 0 // forced rotations left after an out-of-contract AMov
		for step := 0; step < 20000; step++ {
			op := rng.Intn(10)
			if rotations > 0 {
				op, rotations = 0, rotations-1
			}
			switch op {
			case 0: // rotate: never strand the window beyond the file
				amt := rng.Intn(3)
				if live := s.maxLiveOffset(); inContract && live >= 0 && amt > live+1 {
					amt = live + 1
				}
				q.Rotate(amt)
				s.Rotate(amt)
			case 1: // amov
				src, dst := rng.Intn(n), rng.Intn(n)
				if rng.Intn(8) == 0 { // past the queue, then rotate
					if rng.Intn(2) == 0 {
						src += n
					} else {
						dst += n * (1 + rng.Intn(2))
					}
					inContract, rotations = false, 1+rng.Intn(3)
				}
				q.AMov(src, dst)
				s.AMov(src, dst)
			case 2: // reset (region boundary)
				q.Reset()
				s.Reset()
				inContract = true
			default: // memory op
				isStore := rng.Intn(2) == 0
				p := rng.Intn(2) == 0
				c := rng.Intn(2) == 0
				off := rng.Intn(n)
				lo := uint64(rng.Intn(64) * 4)
				hi := lo + uint64(4+rng.Intn(8))
				got := q.OnMem(step, isStore, p, c, off, 0, lo, hi)
				want := s.OnMem(step, isStore, p, c, off, 0, lo, hi)
				if inContract && ((got == nil) != (want == nil) || got != nil && *got != *want) {
					t.Fatalf("n=%d step %d: conflict mismatch: impl=%v spec=%v", n, step, got, want)
				}
			}
			if inContract && q.Checked() != s.checked {
				t.Fatalf("n=%d step %d: Checked() = %d, spec %d", n, step, q.Checked(), s.checked)
			}
			if !inContract {
				// Out of contract the model's count drifts; restart it
				// from the queue's at the next reset.
				s.checked = q.Checked()
			}
		}
	}
}

// TestOrderedQueueSpecWindowInvariant: after any legal stream, no live
// register sits outside [base, base+n) in the spec model — confirming the
// stream generator respects the hardware contract (otherwise the
// equivalence above would be vacuous for the wraparound cases).
func TestOrderedQueueSpecWindowInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 4
	s := newSpecQueue(n)
	for step := 0; step < 5000; step++ {
		switch rng.Intn(6) {
		case 0:
			amt := rng.Intn(2)
			s.Rotate(amt)
		case 1:
			s.AMov(rng.Intn(n), rng.Intn(n))
		default:
			lo := uint64(rng.Intn(32) * 8)
			s.OnMem(step, true, true, false, rng.Intn(n), 0, lo, lo+8)
		}
		for order := range s.entries {
			if order < s.base || order >= s.base+n {
				t.Fatalf("step %d: live order %d outside window [%d,%d)", step, order, s.base, s.base+n)
			}
		}
	}
}

// specBitmask is the literal model of the Efficeon scheme: named
// registers, explicit masks.
type specBitmask struct {
	regs map[int]specEntry
}

func (s *specBitmask) OnMem(opID int, isStore, p, c bool, offset int, mask uint16, lo, hi uint64) *Conflict {
	if c {
		var best *Conflict
		bestReg := -1
		for r, e := range s.regs {
			if mask&(1<<uint(r)) == 0 {
				continue
			}
			if lo < e.hi && e.lo < hi {
				if best == nil || r < bestReg {
					best = &Conflict{Checker: opID, Origin: e.origin}
					bestReg = r
				}
			}
		}
		if best != nil {
			return best
		}
	}
	if p {
		s.regs[offset] = specEntry{lo: lo, hi: hi, byStore: isStore, origin: opID}
	}
	return nil
}

// TestBitmaskMatchesSpec drives the Bitmask detector and its literal model
// with identical random streams.
func TestBitmaskMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b := NewBitmask(15)
	s := &specBitmask{regs: map[int]specEntry{}}
	for step := 0; step < 20000; step++ {
		if rng.Intn(20) == 0 {
			b.Reset()
			s.regs = map[int]specEntry{}
			continue
		}
		isStore := rng.Intn(2) == 0
		p := rng.Intn(2) == 0
		c := rng.Intn(2) == 0
		off := rng.Intn(15)
		mask := uint16(rng.Intn(1 << 15))
		lo := uint64(rng.Intn(64) * 4)
		hi := lo + uint64(4+rng.Intn(8))
		got := b.OnMem(step, isStore, p, c, off, mask, lo, hi)
		want := s.OnMem(step, isStore, p, c, off, mask, lo, hi)
		if (got == nil) != (want == nil) {
			t.Fatalf("step %d: conflict mismatch: impl=%v spec=%v", step, got, want)
		}
		if got != nil && got.Origin != want.Origin {
			t.Fatalf("step %d: origin mismatch: impl=%d spec=%d", step, got.Origin, want.Origin)
		}
	}
}
