package constraint

import (
	"math/rand"
	"testing"
)

func newGraph(n int) *Graph {
	g := New()
	for i := 0; i < n; i++ {
		g.SetT(i, i)
	}
	return g
}

func TestAddCheckFixesT(t *testing.T) {
	g := newGraph(5)
	// Check 4 ->check 1: T(4)=4 >= T(1)=1, so T(4) must drop to 0.
	g.AddCheck(4, 1)
	if g.T(4) != 0 {
		t.Errorf("T(4) = %d, want 0", g.T(4))
	}
	if err := g.CheckInvariance(); err != nil {
		t.Error(err)
	}
	// Check 0 ->check 3: invariance already holds, T unchanged.
	g.AddCheck(0, 3)
	if g.T(0) != 0 {
		t.Errorf("T(0) = %d, want 0", g.T(0))
	}
	if g.NumCheck != 2 {
		t.Errorf("NumCheck = %d, want 2", g.NumCheck)
	}
}

func TestTryAddAntiSimple(t *testing.T) {
	g := newGraph(3)
	if !g.TryAddAnti(0, 2) {
		t.Fatal("anti 0->2 rejected")
	}
	if g.NumAnti != 1 {
		t.Errorf("NumAnti = %d, want 1", g.NumAnti)
	}
	if err := g.CheckInvariance(); err != nil {
		t.Error(err)
	}
}

func TestTryAddAntiShiftsReachableSet(t *testing.T) {
	g := newGraph(6)
	// Build a chain 1 -> 2 -> 3 with checks, then force anti 5 -> 1.
	g.AddCheck(1, 2)
	g.AddCheck(2, 3)
	// T(5)=5 >= T(1)=1, not a cycle (5 not reachable from 1).
	if !g.TryAddAnti(5, 1) {
		t.Fatal("anti 5->1 rejected, want shift")
	}
	if err := g.CheckInvariance(); err != nil {
		t.Error(err)
	}
	if g.T(1) <= g.T(5) {
		t.Errorf("T(1)=%d must exceed T(5)=%d after shift", g.T(1), g.T(5))
	}
	// The whole reachable component must have shifted together.
	if g.T(2) <= g.T(1) || g.T(3) <= g.T(2) {
		t.Errorf("chain order broken: T1=%d T2=%d T3=%d", g.T(1), g.T(2), g.T(3))
	}
}

func TestTryAddAntiDetectsCycle(t *testing.T) {
	g := newGraph(4)
	// 1 ->check 3 (T(1) stays 1 < 3).
	g.AddCheck(1, 3)
	// anti 3 -> 1 closes a cycle: must be rejected and leave the graph
	// untouched.
	before := len(g.Edges())
	if g.TryAddAnti(3, 1) {
		t.Fatal("cycle-closing anti accepted")
	}
	if len(g.Edges()) != before {
		t.Error("rejected anti modified the graph")
	}
	if g.NumAnti != 0 {
		t.Errorf("NumAnti = %d, want 0", g.NumAnti)
	}
}

func TestTryAddAntiIndirectCycle(t *testing.T) {
	g := newGraph(6)
	g.AddCheck(1, 2)
	g.TryAddAnti(2, 4)
	g.AddCheck(4, 5)
	// 5 ... -> anti -> 1 would close 1->2->4->5->1.
	if g.TryAddAnti(5, 1) {
		t.Fatal("indirect cycle not detected")
	}
}

func TestInDegreeAndRemoveOut(t *testing.T) {
	g := newGraph(5)
	g.AddCheck(0, 3)
	g.AddCheck(1, 3)
	g.TryAddAnti(2, 3)
	if g.InDegree(3) != 3 {
		t.Errorf("InDegree(3) = %d, want 3", g.InDegree(3))
	}
	if freed := g.RemoveOut(0); len(freed) != 0 {
		t.Errorf("RemoveOut(0) freed %v, want none", freed)
	}
	if freed := g.RemoveOut(1); len(freed) != 0 {
		t.Errorf("RemoveOut(1) freed %v, want none", freed)
	}
	freed := g.RemoveOut(2)
	if len(freed) != 1 || freed[0] != 3 {
		t.Errorf("RemoveOut(2) freed %v, want [3]", freed)
	}
	if g.InDegree(3) != 0 {
		t.Errorf("InDegree(3) = %d after removals, want 0", g.InDegree(3))
	}
}

func TestRetargetIncomingChecks(t *testing.T) {
	g := newGraph(6)
	g.AddCheck(4, 1) // pending checker of 1 (T(4) lowered to 0)
	g.AddCheck(5, 1) // another
	g.TryAddAnti(0, 1)
	// Introduce the AMOV pseudo node 100 just before some op with T=2.
	g.SetT(100, 1)
	moved := g.RetargetIncomingChecks(1, 100, func(int) bool { return true })
	if len(moved) != 2 {
		t.Fatalf("retargeted %d edges, want 2", len(moved))
	}
	if _, ok := g.HasEdge(4, 100); !ok {
		t.Error("edge 4->100 missing after retarget")
	}
	if _, ok := g.HasEdge(4, 1); ok {
		t.Error("edge 4->1 still present after retarget")
	}
	// The anti edge 0->1 must remain.
	if k, ok := g.HasEdge(0, 1); !ok || k != Anti {
		t.Error("anti edge 0->1 lost by retarget")
	}
	if err := g.CheckInvariance(); err != nil {
		t.Error(err)
	}
	if g.InDegree(1) != 1 || g.InDegree(100) != 2 {
		t.Errorf("in-degrees = (%d,%d), want (1,2)", g.InDegree(1), g.InDegree(100))
	}
}

func TestReachableIncludesStart(t *testing.T) {
	g := newGraph(3)
	g.AddCheck(0, 1)
	h := g.Reachable(0)
	if !h[0] || !h[1] || h[2] {
		t.Errorf("Reachable(0) = %v, want {0,1}", h)
	}
}

func TestSelfEdgePanics(t *testing.T) {
	g := newGraph(2)
	defer func() {
		if recover() == nil {
			t.Error("self edge did not panic")
		}
	}()
	g.AddCheck(1, 1)
}

func TestKindString(t *testing.T) {
	if Check.String() != "check" || Anti.String() != "anti" {
		t.Error("kind names wrong")
	}
}

// TestPaperCycleExample replays the cycle-detection narrative of §5.4.3
// (Figure 12): constraints M5 ->check M1, M5 ->check M3(?), anti M2 -> M5,
// then anti M5(?) -> M3 closes a cycle.
func TestPaperCycleExample(t *testing.T) {
	// Use IDs 1..5 for M1..M5, T initialized to original order.
	g := New()
	for i := 1; i <= 5; i++ {
		g.SetT(i, i)
	}
	// Scheduling M5 first (hoisted): unscheduled M1 and M3 will check it.
	g.AddCheck(1, 5) // T(1) -> 4? no: T(1)=1 < T(5)=5 holds, stays.
	g.AddCheck(3, 5)
	// M3 also checks M4 after M4 is scheduled below it.
	g.AddCheck(4, 3)
	if g.T(4) >= g.T(3) {
		t.Fatalf("T(4)=%d not lowered below T(3)=%d", g.T(4), g.T(3))
	}
	// Now an anti from 3 to 1: 3 reaches 5, not 1 — shift path.
	if !g.TryAddAnti(3, 1) {
		t.Fatal("anti 3->1 rejected")
	}
	// Finally an anti from 5 to 3 would close the cycle 3 -> 5 via check.
	if g.TryAddAnti(5, 3) {
		t.Fatal("cycle 3->check 5, 5->anti 3 not detected")
	}
	if err := g.CheckInvariance(); err != nil {
		t.Error(err)
	}
}

// TestInvarianceUnderRandomStreams fuzzes the incremental maintenance: a
// random interleaving of AddCheck (sources always "unscheduled" — fresh
// nodes without incoming edges, as the allocator guarantees) and
// TryAddAnti must keep the T-invariance and never accept a cycle.
func TestInvarianceUnderRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		g := New()
		const n = 20
		for i := 0; i < n; i++ {
			g.SetT(i, i)
		}
		// scheduled[i]: whether node i has been "scheduled" (may be an
		// anti source/target). Unscheduled nodes can only be check
		// sources — mirroring the allocator's contract.
		scheduled := make([]bool, n)
		for step := 0; step < 60; step++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			if rng.Intn(2) == 0 {
				// Check edge: source must be unscheduled, dst scheduled now.
				if scheduled[a] {
					continue
				}
				if _, dup := g.HasEdge(a, b); dup {
					continue
				}
				scheduled[b] = true
				g.AddCheck(a, b)
			} else {
				// Anti edge: both endpoints scheduled.
				if !scheduled[a] {
					continue
				}
				scheduled[b] = true
				if _, dup := g.HasEdge(a, b); dup {
					continue
				}
				accepted := g.TryAddAnti(a, b)
				if accepted {
					// Must not have closed a cycle: a must not be
					// reachable from itself.
					h := g.Reachable(a)
					count := 0
					for range h {
						count++
					}
					_ = count
					if reachesSelf(g, a) {
						t.Fatalf("trial %d step %d: accepted anti closed a cycle", trial, step)
					}
				}
			}
			if err := g.CheckInvariance(); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
		}
	}
}

// reachesSelf reports whether node a can reach itself through >= 1 edge.
func reachesSelf(g *Graph, a int) bool {
	for m := range g.Reachable(a) {
		if m == a {
			continue
		}
		if g.Reachable(m)[a] {
			return true
		}
	}
	return false
}

// TestRejectedAntiLeavesGraphUsable: after a rejected anti, later valid
// operations still work (the graph was not corrupted). The construction
// follows the allocator's contract: check sources are fresh nodes with no
// incoming edges.
func TestRejectedAntiLeavesGraphUsable(t *testing.T) {
	g := newGraph(6)
	g.AddCheck(2, 0) // T(2) -> -1
	g.AddCheck(1, 2) // T(1) -> -2
	// 0 -> anti -> 1 closes 1 ->check 2 ->check 0 ->anti 1: rejected.
	if g.TryAddAnti(0, 1) {
		t.Fatal("cycle accepted")
	}
	// The graph still accepts consistent edges afterwards.
	if !g.TryAddAnti(0, 5) {
		t.Error("valid anti rejected after a cycle rejection")
	}
	g.AddCheck(4, 5)
	if err := g.CheckInvariance(); err != nil {
		t.Error(err)
	}
}

// TestPooledGraphIsClean verifies Get returns a graph with no residue from
// the previous user: stale T values, adjacency, or counters from a larger
// earlier region must not resurface.
func TestPooledGraphIsClean(t *testing.T) {
	g := Get(8)
	for i := 0; i < 8; i++ {
		g.SetT(i, i)
	}
	g.AddCheck(5, 6)
	if ok := g.TryAddAnti(1, 2); !ok {
		t.Fatal("anti rejected on acyclic graph")
	}
	Put(g)

	g2 := Get(4)
	if g2.NumCheck != 0 || g2.NumAnti != 0 {
		t.Fatalf("recycled graph has counters %d/%d", g2.NumCheck, g2.NumAnti)
	}
	for i := 0; i < 8; i++ {
		if g2.T(i) != 0 {
			t.Fatalf("recycled graph has stale T(%d)=%d", i, g2.T(i))
		}
	}
	if _, ok := g2.HasEdge(5, 6); ok {
		t.Fatal("recycled graph has stale edge")
	}
	if g2.InDegree(6) != 0 {
		t.Fatal("recycled graph has stale in-degree")
	}
	Put(g2)
}

// graphCycle runs one compile's worth of add/traverse work over g.
func graphCycle(t *testing.T, g *Graph, nodes int) {
	for i := 0; i < nodes; i++ {
		g.SetT(i, i)
	}
	for i := 0; i+1 < nodes; i += 2 {
		g.AddCheck(i+1, i)
	}
	for i := 0; i+2 < nodes; i++ {
		if !g.TryAddAnti(i, i+2) {
			t.Fatal("unexpected cycle")
		}
	}
	for i := 0; i < nodes; i++ {
		g.InDegree(i)
	}
}

// TestGraphReuseAllocs pins the steady-state allocation count of a reused
// graph: once the adjacency storage has grown to the working size, a full
// reset/add/traverse cycle must not allocate. The pin is exact in every
// build mode — no pool is involved.
func TestGraphReuseAllocs(t *testing.T) {
	const nodes = 64
	g := New()
	work := func() {
		g.Reset(nodes)
		graphCycle(t, g, nodes)
	}
	work() // grow the storage to working size
	if allocs := testing.AllocsPerRun(50, work); allocs != 0 {
		t.Errorf("held graph reuse allocates %.1f times per compile, want 0", allocs)
	}
}

// TestGraphPoolAllocs pins the pooled Get/Put cycle at zero allocations.
// Under the race detector sync.Pool drops a fraction of Puts on purpose,
// so a Get may build a fresh graph; the pin applies only without -race.
func TestGraphPoolAllocs(t *testing.T) {
	const nodes = 64
	work := func() {
		g := Get(nodes)
		graphCycle(t, g, nodes)
		Put(g)
	}
	work() // warm the pool to working size
	allocs := testing.AllocsPerRun(50, work)
	if !raceEnabled && allocs != 0 {
		t.Errorf("pooled graph reuse allocates %.1f times per compile, want 0", allocs)
	}
}
