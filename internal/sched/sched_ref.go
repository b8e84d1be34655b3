package sched

import (
	"fmt"

	"smarq/internal/alias"
	"smarq/internal/aliashw"
	"smarq/internal/core"
	"smarq/internal/deps"
	"smarq/internal/ir"
)

// This file keeps the original heap-based scheduling loop alive as RunRef,
// the reference implementation the flat CLZ-bitmap scheduler in Run is
// differentially tested against (TestCompileFlatMatchesReference and the
// sched-level TestRunMatchesReference). The ready heap pops entries in
// itemLess order — (height descending, original ID ascending) — which is a
// static total order over ops, exactly the order Run's precomputed rank
// bitmap walks; the two must therefore produce identical schedules.

// item is a heap entry.
type item struct {
	id     int
	height int
	origID int
}

// itemLess orders the ready heap: height descending, original ID
// ascending. The tiebreak makes the order total (origID is unique among
// live entries), so every correct heap pops the same sequence.
func itemLess(a, b item) bool {
	if a.height != b.height {
		return a.height > b.height
	}
	return a.origID < b.origID
}

// readyHeap is a binary min-heap under itemLess, hand-rolled so push/pop
// move values without the interface boxing of container/heap.
type readyHeap []item

func (h readyHeap) Len() int { return len(h) }

func (h *readyHeap) push(it item) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *readyHeap) pop() item {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < last && itemLess(s[l], s[min]) {
			min = l
		}
		if r < last && itemLess(s[r], s[min]) {
			min = r
		}
		if min == i {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// RunRef is the original heap-based scheduler, retained as the reference
// for differential testing. It must stay behaviorally identical to Run.
func RunRef(reg *ir.Region, tbl *alias.Table, ds *deps.Set, cfg Config) (*Schedule, error) {
	n := len(reg.Ops)
	sc0 := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc0)
	sc0.grab(n, reg.NumVRegs)
	nodes := sc0.nodes
	memSeq := buildNodes(sc0, reg)
	succOff, succs := buildEdges(sc0, reg, ds, cfg)
	succsOf := func(i int) []int32 { return succs[succOff[i]:succOff[i+1]] }
	computeHeights(sc0, cfg, succsOf)
	futureP := computeForcedP(sc0, ds, cfg)

	var alloc allocSink
	var ordered *core.Allocator
	var bitmask *bitmaskSink
	numRegs := cfg.NumAliasRegs
	if cfg.Mode == HWBitmask {
		if numRegs > aliashw.MaxBitmaskRegs {
			numRegs = aliashw.MaxBitmaskRegs
		}
		bitmask = newBitmaskSink(ds, n)
		defer bitmask.release()
		alloc = bitmask
	} else {
		ordered = core.NewAllocatorOpts(n, ds, numRegs, cfg.Alloc)
		alloc = ordered
	}
	ready := &sc0.ready
	for i := range nodes {
		if nodes[i].preds == 0 {
			ready.push(item{id: i, height: nodes[i].height, origID: i})
		}
	}

	sc := &Schedule{}
	nextMem := int32(0) // lowest memIndex not yet scheduled (non-spec order rule)
	sc0.memScheduled = resize(sc0.memScheduled, int(memSeq))
	memScheduled := sc0.memScheduled

	readyTime := sc0.readyTime
	clock, aluUsed, memUsed := 0, 0, 0
	advance := func(to int) {
		if to <= clock {
			to = clock + 1
		}
		clock = to
		aluUsed, memUsed = 0, 0
	}
	charge := func(op *ir.Op) {
		if aluUsed >= cfg.Machine.IssueWidth ||
			(op.IsMem() && memUsed >= cfg.Machine.MemPorts) {
			advance(clock + 1)
		}
		aluUsed++
		if op.IsMem() {
			memUsed++
		}
	}

	deferred := sc0.deferred // ready mem ops held back by non-spec mode
	scheduledCount := 0
	for scheduledCount < n {
		pressure := alloc.Pressure(futureP)
		nonSpec := cfg.ForceNonSpec || pressure >= numRegs-cfg.PressureMargin
		if nonSpec {
			sc.NonSpecCycles++
		}

		// Re-arm deferred ops that are now permitted.
		if len(deferred) > 0 {
			keep := deferred[:0]
			for _, it := range deferred {
				if !nonSpec || nodes[it.id].memIndex == nextMem {
					ready.push(it)
				} else {
					keep = append(keep, it)
				}
			}
			deferred = keep
		}

		var picked item
		found := false
		stash := sc0.stash[:0] // time- or resource-blocked this cycle
		for ready.Len() > 0 {
			it := ready.pop()
			nd := &nodes[it.id]
			if nonSpec && nd.memIndex >= 0 && nd.memIndex != nextMem {
				deferred = append(deferred, it)
				continue
			}
			if readyTime[it.id] > clock ||
				aluUsed >= cfg.Machine.IssueWidth ||
				(nd.op.IsMem() && memUsed >= cfg.Machine.MemPorts) {
				stash = append(stash, it)
				continue
			}
			picked = it
			found = true
			break
		}
		for _, it := range stash {
			ready.push(it)
		}
		sc0.stash = stash

		if !found {
			if ready.Len() > 0 {
				// Nothing issues this cycle: advance to the earliest time
				// a stalled op becomes ready.
				min := int(^uint(0) >> 1)
				for _, it := range *ready {
					if rt := readyTime[it.id]; rt < min {
						min = rt
					}
				}
				advance(min)
				continue
			}
			// Only mode-deferred ops remain: schedule the next in-order
			// memory op (progress guarantee — see package comment).
			idx := -1
			for i, it := range deferred {
				if nodes[it.id].memIndex == nextMem {
					idx = i
					break
				}
			}
			if idx == -1 {
				return nil, fmt.Errorf("sched: stuck with %d deferred ops at %d/%d scheduled", len(deferred), scheduledCount, n)
			}
			picked = deferred[idx]
			deferred = append(deferred[:idx], deferred[idx+1:]...)
			if readyTime[picked.id] > clock {
				advance(readyTime[picked.id])
			}
		}

		nd := nodes[picked.id]
		if isDeadPlaceholder(nd.op) {
			// Placeholder of an eliminated store: occupies no slot and
			// emits nothing, but still releases its successors.
		} else {
			for _, em := range alloc.Schedule(nd.op) {
				charge(em)
			}
		}
		scheduledCount++
		finish := clock + cfg.Machine.Latency(nd.op)
		if nd.memIndex >= 0 {
			memScheduled[nd.memIndex] = true
			for nextMem < memSeq && memScheduled[nextMem] {
				nextMem++
			}
			if forcedPOf(sc0)[nd.op.ID] {
				futureP--
			}
		}
		for _, s := range succsOf(picked.id) {
			if finish > readyTime[s] {
				readyTime[s] = finish
			}
			nodes[s].preds--
			if nodes[s].preds == 0 {
				ready.push(item{id: int(s), height: nodes[s].height, origID: int(s)})
			}
		}
	}
	sc0.deferred = deferred

	if bitmask != nil {
		res, err := core.AllocateBitmask(bitmask.seq, ds, numRegs)
		if err != nil {
			return nil, err
		}
		sc.Seq = res.Seq
		sc.Alloc = res
		return sc, nil
	}
	res, err := ordered.Finish()
	if err != nil {
		return nil, err
	}
	sc.Seq = res.Seq
	sc.Alloc = res
	return sc, nil
}

func forcedPOf(sc *scratch) []bool { return sc.forcedP }
