// Package atomic implements the atomic-region hardware of Figure 1: a
// checkpoint of the guest architectural state plus a memory undo log, so a
// translated region either commits completely or rolls back to its entry.
//
// Stores write through and record the overwritten bytes. Write-through
// gives loads scheduled-order visibility — a load that executes after a
// store in the optimized schedule sees that store's value, and a load
// hoisted above a store sees the old value, which is exactly the
// speculation the alias hardware polices. Rollback replays the undo log in
// reverse and restores the register checkpoint.
//
// A Region is single-use: Commit or Rollback finishes it. Reuse would be
// a runtime bug (a store after commit would append to a dead undo log
// with no checkpoint to recover to), so a finished region fails loudly —
// Store returns ErrFinished and Commit/Rollback panic.
//
// A finished Region may, however, be re-armed with Begin: the runtime
// keeps one Region per pooled execution context, lent to one System.Run
// at a time, and recycles its undo-log storage and checkpoint across
// region entries, so the steady-state execute path allocates nothing. Re-arming does not weaken the single-use contract —
// between one Begin and the next Commit/Rollback the region behaves
// exactly like a freshly allocated one.
package atomic

import (
	"errors"

	"smarq/internal/guest"
)

// ErrFinished reports a Store on a region that has already committed or
// rolled back.
var ErrFinished = errors.New("atomic: store on a finished region")

type undoRec struct {
	addr uint64
	size int
	old  uint64
}

// Region is one active atomic region. The zero value is a finished region;
// arm it with Begin.
type Region struct {
	st  *guest.State
	mem *guest.Memory
	// checkpoint is held by value so re-arming a pooled Region does not
	// allocate a fresh guest.State per entry.
	checkpoint guest.State
	undo       []undoRec
	finished   bool
}

// Begin opens a new atomic region: the register state is checkpointed now.
// The returned region is heap-allocated; the runtime's pooled path re-arms
// an existing Region with (*Region).Begin instead.
func Begin(st *guest.State, mem *guest.Memory) *Region {
	r := &Region{}
	r.Begin(st, mem)
	return r
}

// Begin (re-)arms r over st and mem, checkpointing the register state.
// The previous transaction must be finished (or r never used); re-arming
// an active region would silently discard its undo log, so it panics.
// Undo-log capacity from earlier transactions is retained.
func (r *Region) Begin(st *guest.State, mem *guest.Memory) {
	r.Enter(mem)
	r.st = st
	r.checkpoint = *st
}

// Enter (re-)arms r over mem alone, with no register checkpoint: for a
// region whose guest registers are written only at commit, after which
// nothing rolls back, restoring a checkpoint would be a no-op, and taking
// one copies the whole guest state. Rollback then undoes the stores only.
// It panics on an active region, as Begin does.
func (r *Region) Enter(mem *guest.Memory) {
	if !r.Finished() {
		panic("atomic: Begin on an active region")
	}
	r.st = nil
	r.mem = mem
	r.undo = r.undo[:0]
	r.finished = false
}

// Detach drops a finished region's references to the guest state and
// memory it last ran over, keeping its undo-log storage, so a pooled
// Region does not keep a finished guest alive. The region stays finished;
// Begin re-arms it. Detaching an active region would lose its undo log,
// so it panics.
func (r *Region) Detach() {
	if !r.Finished() {
		panic("atomic: Detach on an active region")
	}
	r.st, r.mem = nil, nil
}

// Finished reports whether the region has committed or rolled back. The
// zero Region is finished.
func (r *Region) Finished() bool { return r.mem == nil || r.finished }

// Store performs a speculative store: the old bytes are logged, then the
// new value is written through. On a finished region it writes nothing
// and returns ErrFinished.
func (r *Region) Store(addr uint64, size int, val uint64) error {
	if r.Finished() {
		return ErrFinished
	}
	old, ok := swapPage(r.mem.Pages(), addr, size, val)
	if !ok {
		var err error
		if old, err = r.mem.Load(addr, size); err != nil {
			return err
		}
		if err := r.mem.Store(addr, size, val); err != nil {
			return err
		}
	}
	r.undo = append(r.undo, undoRec{addr: addr, size: size, old: old})
	return nil
}

// swapPage is Store's fast path: an access inside one allocated page
// reads the old bytes and writes the new ones in place, through the
// guest.PageLoad/PageStore functions. Anything else (an unallocated page,
// a page-crossing access, the tail, a fault, a bad width) it declines
// with no side effects, and Store takes the Memory.Load/Memory.Store
// path, which handles all of those.
func swapPage(pages []*guest.Page, addr uint64, size int, val uint64) (uint64, bool) {
	switch size {
	case 1:
		if old, ok := guest.PageLoad1(pages, addr); ok {
			guest.PageStore1(pages, addr, val)
			return old, true
		}
	case 2:
		if old, ok := guest.PageLoad2(pages, addr); ok {
			guest.PageStore2(pages, addr, val)
			return old, true
		}
	case 4:
		if old, ok := guest.PageLoad4(pages, addr); ok {
			guest.PageStore4(pages, addr, val)
			return old, true
		}
	case 8:
		if old, ok := guest.PageLoad8(pages, addr); ok {
			guest.PageStore8(pages, addr, val)
			return old, true
		}
	}
	return 0, false
}

// StoreCount reports how many store records the region's undo log has
// buffered (tests and stats).
func (r *Region) StoreCount() int { return len(r.undo) }

// Commit makes the region's effects permanent and finishes the region.
// Committing a finished region is a runtime bug and panics.
func (r *Region) Commit() {
	if r.Finished() {
		panic("atomic: Commit on a finished region")
	}
	r.finished = true
	r.undo = r.undo[:0]
}

// Rollback undoes every store in reverse order, restores the register
// checkpoint (when Begin took one), and finishes the region. Rolling back
// a finished region is a runtime bug and panics.
func (r *Region) Rollback() {
	if r.Finished() {
		panic("atomic: Rollback on a finished region")
	}
	r.finished = true
	for i := len(r.undo) - 1; i >= 0; i-- {
		u := r.undo[i]
		// The undo write cannot fail: the original store succeeded.
		if err := r.mem.Store(u.addr, u.size, u.old); err != nil {
			panic("atomic: undo of a committed store failed: " + err.Error())
		}
	}
	r.undo = r.undo[:0]
	if r.st != nil {
		*r.st = r.checkpoint
	}
}
