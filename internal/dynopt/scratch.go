package dynopt

import (
	"sync"

	"smarq/internal/aliashw"
	"smarq/internal/sched"
	"smarq/internal/vliw"
)

// execScratch is the executor state one System.Run borrows: the VLIW
// execution context (vreg files, atomic-region checkpoint and undo log)
// and the alias detector. In the paper all three belong to the core, and
// every atomic region finds them empty and leaves them empty, since commit
// and rollback both clear them (§3). Nothing in them outlives a region
// entry, so a process-wide pool lends them to whichever System runs next
// instead of every System keeping its own copy.
//
// regions stages the borrower's Stats.Regions for the loan: installs
// append to it and overwrite in it, and returnExec publishes it, so a
// System pays for one exact-length slice per loan instead of regrowing
// its own by doubling, and the buffer's capacity carries over to the
// next borrower.
type execScratch struct {
	ctx     vliw.ExecContext
	det     aliashw.Detector
	regions []RegionStats
}

// scratchKey selects a scratch pool. A detector's mode and register count
// fix its hardware, so a scratch is lent only to Systems configured for
// the same detector.
type scratchKey struct {
	mode sched.HWMode
	regs int
}

// scratchKeyOf resolves cfg's detector. The ALAT and the null detector
// ignore NumAliasRegs, and the bit mask caps it at its encoding limit.
func scratchKeyOf(cfg Config) scratchKey {
	switch cfg.Mode {
	case sched.HWOrdered:
		return scratchKey{cfg.Mode, cfg.NumAliasRegs}
	case sched.HWBitmask:
		return scratchKey{cfg.Mode, min(cfg.NumAliasRegs, aliashw.MaxBitmaskRegs)}
	case sched.HWALAT:
		return scratchKey{mode: cfg.Mode}
	default:
		return scratchKey{mode: sched.HWNone}
	}
}

func (k scratchKey) newDetector() aliashw.Detector {
	switch k.mode {
	case sched.HWOrdered:
		return aliashw.NewOrderedQueue(k.regs)
	case sched.HWALAT:
		return aliashw.NewALAT()
	case sched.HWBitmask:
		return aliashw.NewBitmask(k.regs)
	default:
		return aliashw.None{}
	}
}

// scratchPools holds one pool per detector configuration. New resolves
// its System's pool once, so Run itself never takes the lock.
var scratchPools struct {
	mu sync.Mutex
	m  map[scratchKey]*sync.Pool
}

func scratchPoolFor(k scratchKey) *sync.Pool {
	scratchPools.mu.Lock()
	defer scratchPools.mu.Unlock()
	p := scratchPools.m[k]
	if p == nil {
		if scratchPools.m == nil {
			scratchPools.m = make(map[scratchKey]*sync.Pool)
		}
		p = &sync.Pool{New: func() any { return &execScratch{det: k.newDetector()} }}
		scratchPools.m[k] = p
	}
	return p
}

// borrowExec takes an executor scratch from the pool for the region
// entries and installs to come, and stages Stats.Regions in it. Run
// borrows on entry and returns on every exit; code that dispatches or
// installs regions outside Run borrows and returns through the same pair.
func (s *System) borrowExec() {
	if s.x != nil {
		panic("dynopt: executor scratch borrowed twice")
	}
	s.x = s.scratchPool.Get().(*execScratch)
	s.xChecked = s.x.det.Checked()
	s.x.regions = append(s.x.regions[:0], s.Stats.Regions...)
}

// returnExec ends the loan. The staged region statistics are published
// to Stats.Regions at their exact length, into the published array when
// the loan added no region. The detector's checks during the loan are
// added to the System's total (Checked is cumulative over the detector's
// life, across all its borrowers). The scratch goes back to the pool only when
// it is idle, its atomic region finished and its detector reset; one
// left mid-entry by a panic is dropped.
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
	s.hwChecks += x.det.Checked() - s.xChecked
	if x.ctx.Idle() {
		x.ctx.Detach()
		s.scratchPool.Put(x)
	}
}
