package dynopt

import (
	"sync"

	"smarq/internal/vliw"
)

// execScratch is the executor state one System.Run borrows: the VLIW
// execution context (vreg files, origin ranges, granule sets and undo
// log). In the paper it belongs to the core, and every atomic region
// finds it empty and leaves it empty, since commit and rollback both
// clear it (§3). Nothing in it outlives a region entry or depends on the
// alias hardware, which each installed region carries baked in, so one
// process-wide pool lends it to whichever System runs next instead of
// every System keeping its own copy.
//
// regions stages the borrower's Stats.Regions for the loan: installs
// append to it and overwrite in it, and returnExec publishes it, so a
// System pays for one exact-length slice per loan instead of regrowing
// its own by doubling, and the buffer's capacity carries over to the
// next borrower.
type execScratch struct {
	ctx     vliw.ExecContext
	regions []RegionStats
}

// execPool is the process's executor scratch pool.
var execPool = sync.Pool{New: func() any { return new(execScratch) }}

// borrowExec takes an executor scratch from the pool for the region
// entries and installs to come, and stages Stats.Regions in it. Run
// borrows on entry and returns on every exit; code that dispatches or
// installs regions outside Run borrows and returns through the same pair.
func (s *System) borrowExec() {
	if s.x != nil {
		panic("dynopt: executor scratch borrowed twice")
	}
	s.x = s.scratchPool.Get().(*execScratch)
	s.x.regions = append(s.x.regions[:0], s.Stats.Regions...)
}

// returnExec ends the loan. The staged region statistics are published
// to Stats.Regions at their exact length, into the published array when
// the loan added no region. The scratch goes back to the pool only when
// it is idle, its atomic region finished; one left mid-entry by a panic
// is dropped.
func (s *System) returnExec() {
	x := s.x
	if x == nil {
		return
	}
	s.x = nil
	if len(x.regions) != len(s.Stats.Regions) {
		s.Stats.Regions = make([]RegionStats, len(x.regions))
	}
	copy(s.Stats.Regions, x.regions)
	if x.ctx.Idle() {
		x.ctx.Detach()
		s.scratchPool.Put(x)
	}
}
