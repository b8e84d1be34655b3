package aliashw

import (
	"math/rand"
	"testing"
)

// TestEvaluatorMatchesOnMem: the check list the evaluator gives a memory
// op is exactly the sequence of registers OnMem compares it against, in
// order. Ops get disjoint 8-byte ranges, so every earlier op runs without
// a conflict. Then, for each position j of an op's list, a fresh detector
// replays the stream up to the op and the op accesses the range of the
// list's j-th origin: OnMem must report that origin after j+1
// comparisons. With a range no op touched it must compare the whole list
// and report nothing. Each hardware runs random streams of memory ops,
// rotations and AMOVs within the allocator's contract, at 16, 64 and 100
// ordered registers.
func TestEvaluatorMatchesOnMem(t *testing.T) {
	type step struct {
		kind         int // 0 mem, 1 rotate, 2 amov
		store, p, c  bool
		offset, a, b int
		mask         uint16
		lo, hi       uint64
	}
	for _, det := range []Detector{NewOrderedQueue(16), NewOrderedQueue(64), NewOrderedQueue(100),
		NewALAT(), NewBitmask(15), None{}} {
		hw := det.HW()
		rng := rand.New(rand.NewSource(int64(hw.Kind)*1000 + int64(hw.Regs)))
		regs := max(hw.Regs, 1)
		for stream := 0; stream < 20; stream++ {
			var steps []step
			for i := 0; i < 60; i++ {
				switch k := rng.Intn(10); {
				case k == 0 && hw.Kind == KindOrdered:
					steps = append(steps, step{kind: 1, a: rng.Intn(3)})
				case k == 1 && hw.Kind == KindOrdered:
					steps = append(steps, step{kind: 2, a: rng.Intn(regs), b: rng.Intn(regs)})
				default:
					lo := uint64(16 * (i + 1))
					steps = append(steps, step{store: rng.Intn(2) == 0, p: rng.Intn(2) == 0, c: rng.Intn(2) == 0,
						offset: rng.Intn(regs), mask: uint16(rng.Intn(1 << 15)), lo: lo, hi: lo + 8})
				}
			}
			replay := func(d Detector, upto int) {
				for i, s := range steps[:upto] {
					switch s.kind {
					case 0:
						if c := d.OnMem(i, s.store, s.p, s.c, s.offset, s.mask, s.lo, s.hi); c != nil {
							t.Fatalf("%s: step %d conflicts on disjoint ranges: %+v", d.Name(), i, c)
						}
					case 1:
						d.Rotate(s.a)
					case 2:
						d.AMov(s.a, s.b)
					}
				}
			}
			ev := hw.Evaluator()
			for k, s := range steps {
				switch s.kind {
				case 1:
					ev.Rotate(s.a)
					continue
				case 2:
					ev.AMov(s.a, s.b)
					continue
				}
				list := append([]int32(nil), ev.Mem(k, s.store, s.p, s.c, s.offset, s.mask)...)
				probe := func(lo, hi uint64) (*Conflict, uint64) {
					d := hw.model()
					replay(d, k)
					before := d.Checked()
					c := d.OnMem(k, s.store, s.p, s.c, s.offset, s.mask, lo, hi)
					return c, d.Checked() - before
				}
				if c, n := probe(1<<40, 1<<40+8); c != nil || n != uint64(len(list)) {
					t.Fatalf("%s stream %d step %d: a clear access conflicts (%v) after %d comparisons, the list holds %d",
						det.Name(), stream, k, c, n, len(list))
				}
				for j, o := range list {
					c, n := probe(steps[o].lo, steps[o].hi)
					if c == nil || c.Origin != int(o) || c.Checker != k || n != uint64(j+1) {
						t.Fatalf("%s stream %d step %d: aliasing origin %d (list position %d of %v) gives %v after %d comparisons",
							det.Name(), stream, k, o, j, list, c, n)
					}
				}
			}
		}
	}
}
