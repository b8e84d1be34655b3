package atomic

import (
	"testing"

	"smarq/internal/guest"
)

func TestCommitKeepsEffects(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(64)
	st.R[1] = 7
	r := Begin(st, mem)
	if err := r.Store(8, 8, 42); err != nil {
		t.Fatal(err)
	}
	st.R[1] = 9
	r.Commit()
	v, _ := mem.Load(8, 8)
	if v != 42 {
		t.Errorf("memory = %d after commit, want 42", v)
	}
	if st.R[1] != 9 {
		t.Errorf("r1 = %d after commit, want 9", st.R[1])
	}
}

func TestRollbackRestoresEverything(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(64)
	st.R[1] = 7
	st.F[2] = 1.5
	if err := mem.Store(8, 8, 11); err != nil {
		t.Fatal(err)
	}
	r := Begin(st, mem)
	st.R[1] = 100
	st.F[2] = -3
	if err := r.Store(8, 8, 42); err != nil {
		t.Fatal(err)
	}
	if err := r.Store(16, 4, 5); err != nil {
		t.Fatal(err)
	}
	r.Rollback()
	v, _ := mem.Load(8, 8)
	if v != 11 {
		t.Errorf("memory[8] = %d after rollback, want 11", v)
	}
	v, _ = mem.Load(16, 4)
	if v != 0 {
		t.Errorf("memory[16] = %d after rollback, want 0", v)
	}
	if st.R[1] != 7 || st.F[2] != 1.5 {
		t.Errorf("state after rollback = r1:%d f2:%v, want 7/1.5", st.R[1], st.F[2])
	}
}

func TestStoresVisibleWithinRegion(t *testing.T) {
	// Write-through: a later load (in scheduled order) sees the value.
	st := &guest.State{}
	mem := guest.NewMemory(64)
	r := Begin(st, mem)
	if err := r.Store(0, 8, 99); err != nil {
		t.Fatal(err)
	}
	v, _ := mem.Load(0, 8)
	if v != 99 {
		t.Errorf("in-region visibility: got %d, want 99", v)
	}
	r.Rollback()
}

func TestRollbackReverseOrder(t *testing.T) {
	// Two stores to the same location: rollback must restore the ORIGINAL
	// value, not the intermediate one.
	st := &guest.State{}
	mem := guest.NewMemory(64)
	if err := mem.Store(0, 8, 1); err != nil {
		t.Fatal(err)
	}
	r := Begin(st, mem)
	_ = r.Store(0, 8, 2)
	_ = r.Store(0, 8, 3)
	r.Rollback()
	v, _ := mem.Load(0, 8)
	if v != 1 {
		t.Errorf("memory = %d after rollback of two stores, want 1", v)
	}
}

func TestStoreFaultDoesNotLog(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(16)
	r := Begin(st, mem)
	if err := r.Store(100, 8, 1); err == nil {
		t.Fatal("out-of-range store succeeded")
	}
	if r.StoreCount() != 0 {
		t.Error("failed store left an undo record")
	}
	r.Rollback()
}

func TestMixedSizeStoresRollBack(t *testing.T) {
	// Overlapping stores of different widths: the byte-exact undo must
	// restore the original contents even when a narrow store punched into
	// the middle of a wide one.
	st := &guest.State{}
	mem := guest.NewMemory(64)
	if err := mem.Store(0, 8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	r := Begin(st, mem)
	_ = r.Store(0, 8, 0xaaaaaaaaaaaaaaaa)
	_ = r.Store(2, 2, 0xbeef)
	_ = r.Store(3, 1, 0x7)
	_ = r.Store(0, 4, 0xcafef00d)
	r.Rollback()
	v, _ := mem.Load(0, 8)
	if v != 0x1122334455667788 {
		t.Errorf("memory = %#x after mixed-size rollback, want 0x1122334455667788", v)
	}
}

func TestStoreErrorMidRegionThenRollback(t *testing.T) {
	// A faulting store mid-region must leave earlier stores rollbackable
	// and the failed address untouched.
	st := &guest.State{}
	mem := guest.NewMemory(32)
	if err := mem.Store(0, 8, 5); err != nil {
		t.Fatal(err)
	}
	r := Begin(st, mem)
	if err := r.Store(0, 8, 6); err != nil {
		t.Fatal(err)
	}
	if err := r.Store(100, 8, 7); err == nil {
		t.Fatal("out-of-range store succeeded")
	}
	if r.StoreCount() != 1 {
		t.Fatalf("undo log holds %d records after one good + one failed store, want 1", r.StoreCount())
	}
	r.Rollback()
	v, _ := mem.Load(0, 8)
	if v != 5 {
		t.Errorf("memory = %d after rollback, want 5", v)
	}
}

func TestStoreAfterFinishFailsLoudly(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(64)

	r := Begin(st, mem)
	r.Commit()
	if !r.Finished() {
		t.Fatal("committed region not Finished")
	}
	if err := r.Store(0, 8, 1); err != ErrFinished {
		t.Errorf("Store after Commit = %v, want ErrFinished", err)
	}
	if v, _ := mem.Load(0, 8); v != 0 {
		t.Error("Store after Commit wrote memory")
	}

	r = Begin(st, mem)
	r.Rollback()
	if err := r.Store(0, 8, 1); err != ErrFinished {
		t.Errorf("Store after Rollback = %v, want ErrFinished", err)
	}
}

func TestBeginReArmReuse(t *testing.T) {
	// A pooled Region re-armed with (*Region).Begin must behave exactly
	// like a fresh one across commit and rollback cycles.
	st := &guest.State{}
	mem := guest.NewMemory(64)
	var r Region

	// Cycle 1: commit.
	st.R[1] = 7
	r.Begin(st, mem)
	if err := r.Store(8, 8, 42); err != nil {
		t.Fatal(err)
	}
	st.R[1] = 9
	r.Commit()
	if v, _ := mem.Load(8, 8); v != 42 {
		t.Errorf("memory = %d after commit, want 42", v)
	}

	// Cycle 2: rollback on the same Region value must restore the state
	// at the second Begin, not the first.
	st.R[1] = 20
	st.F[3] = 2.5
	r.Begin(st, mem)
	st.R[1] = 21
	st.F[3] = -1
	if err := r.Store(8, 8, 99); err != nil {
		t.Fatal(err)
	}
	if err := r.Store(16, 4, 5); err != nil {
		t.Fatal(err)
	}
	r.Rollback()
	if v, _ := mem.Load(8, 8); v != 42 {
		t.Errorf("memory[8] = %d after re-armed rollback, want 42", v)
	}
	if v, _ := mem.Load(16, 4); v != 0 {
		t.Errorf("memory[16] = %d after re-armed rollback, want 0", v)
	}
	if st.R[1] != 20 || st.F[3] != 2.5 {
		t.Errorf("state after re-armed rollback = r1:%d f3:%v, want 20/2.5", st.R[1], st.F[3])
	}

	// Cycle 3: the single-use contract still holds after re-arming.
	r.Begin(st, mem)
	r.Commit()
	if err := r.Store(0, 8, 1); err != ErrFinished {
		t.Errorf("Store after re-armed Commit = %v, want ErrFinished", err)
	}
}

func TestBeginOnActiveRegionPanics(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(64)
	var r Region
	r.Begin(st, mem)
	defer func() {
		if recover() == nil {
			t.Error("Begin on an active region did not panic")
		}
	}()
	r.Begin(st, mem)
}

func TestPooledRegionCycleZeroAllocs(t *testing.T) {
	// A warmed Begin/Store/Commit cycle on a pooled Region must not
	// allocate: the checkpoint is held by value and the undo log's
	// capacity is retained across Finish.
	st := &guest.State{}
	mem := guest.NewMemory(64)
	var r Region
	// Warm up: grow the undo log once.
	r.Begin(st, mem)
	for i := 0; i < 8; i++ {
		_ = r.Store(uint64(i*8), 8, uint64(i))
	}
	r.Commit()

	allocs := testing.AllocsPerRun(100, func() {
		r.Begin(st, mem)
		for i := 0; i < 8; i++ {
			_ = r.Store(uint64(i*8), 8, uint64(i))
		}
		r.Commit()
	})
	if allocs != 0 {
		t.Errorf("warmed Begin/Store/Commit cycle allocates %v times per run, want 0", allocs)
	}
}

func TestStoreCount(t *testing.T) {
	st := &guest.State{}
	mem := guest.NewMemory(64)
	r := Begin(st, mem)
	_ = r.Store(0, 8, 1)
	_ = r.Store(8, 4, 2)
	if r.StoreCount() != 2 {
		t.Errorf("StoreCount() = %d after two stores, want 2", r.StoreCount())
	}
	r.Rollback()
}

func TestReusedRegionPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a finished region did not panic", name)
			}
		}()
		f()
	}
	st := &guest.State{}
	mem := guest.NewMemory(64)

	r := Begin(st, mem)
	r.Commit()
	expectPanic("Commit", r.Commit)
	expectPanic("Rollback", r.Rollback)

	r = Begin(st, mem)
	r.Rollback()
	expectPanic("Rollback", r.Rollback)
	expectPanic("Commit", r.Commit)
}

// TestStoreMatchesMemory holds Store to what Memory.Store does at every
// width, on both of its paths: inside an allocated page (the page fast
// path), and in a page never stored to, across a page boundary and in the
// tail (the Memory.Load/Store fallback). Rollback must then restore the
// original bytes.
func TestStoreMatchesMemory(t *testing.T) {
	const size = 2*guest.PageSize + 40
	filled := func() *guest.Memory {
		m := guest.NewMemory(size)
		if err := m.Store(8, 8, 0x0102030405060708); err != nil { // allocates page 0
			t.Fatal(err)
		}
		return m
	}
	const val = 0xf1e2d3c4b5a69788
	for _, width := range []int{1, 2, 4, 8} {
		for _, addr := range []uint64{6, guest.PageSize + 8, guest.PageSize - 3, 2*guest.PageSize + 8} {
			mem, want := filled(), filled()
			before := mem.Digest()
			r := Begin(&guest.State{}, mem)
			if err := r.Store(addr, width, val); err != nil {
				t.Fatalf("%d-byte store at %#x: %v", width, addr, err)
			}
			if err := want.Store(addr, width, val); err != nil {
				t.Fatal(err)
			}
			if mem.Digest() != want.Digest() {
				t.Errorf("%d-byte store at %#x: memory differs from Memory.Store's", width, addr)
			}
			r.Rollback()
			if mem.Digest() != before {
				t.Errorf("%d-byte store at %#x: rollback left the memory changed", width, addr)
			}
		}
	}
}
