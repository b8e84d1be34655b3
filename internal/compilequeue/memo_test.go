package compilequeue_test

// These tests pin the memo contract that dynopt's CompileConfig.Memoize
// relies on: compilequeue content keys over a private one-shard
// codecache.Cache, which is exact LRU under single-threaded use. They live
// in an external test package because codecache imports compilequeue.

import (
	"testing"

	"smarq/internal/codecache"
	"smarq/internal/compilequeue"
)

// newMemo builds a cache the way a single System memoizing on its own does:
// one shard, optionally bounded in entries and bytes.
func newMemo(maxEntries, maxBytes int64, size func(int) int64) *codecache.Cache[int] {
	return codecache.New(codecache.Options{Shards: 1, MaxEntries: maxEntries, MaxBytes: maxBytes}, size)
}

func TestMemoCountsHitsAndMisses(t *testing.T) {
	m := newMemo(0, 0, nil)
	k1 := compilequeue.NewKey().Int(1)
	k2 := compilequeue.NewKey().Int(2)

	if _, ok := m.Get(k1); ok {
		t.Fatal("empty memo reported a hit")
	}
	m.Put(k1, 1)
	if v, ok := m.Get(k1); !ok || v != 1 {
		t.Fatalf("Get(k1) = %d, %v after Put", v, ok)
	}
	if _, ok := m.Get(k2); ok {
		t.Fatal("Get(k2) hit without a Put")
	}

	if st := m.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 1/2", st.Hits, st.Misses)
	}
	if m.Len() != 1 {
		t.Errorf("Len() = %d, want 1", m.Len())
	}
}

// TestMemoDropOldest covers the memo-pressure hook: dropping from an
// empty table is a no-op, otherwise the coldest entry goes and is counted
// as an eviction.
func TestMemoDropOldest(t *testing.T) {
	m := newMemo(0, 0, nil) // unbounded: evictions only via DropOldest
	if m.DropOldest() {
		t.Error("DropOldest on an empty memo reported an eviction")
	}
	k1, k2 := compilequeue.NewKey().Int(1), compilequeue.NewKey().Int(2)
	m.Put(k1, 1)
	m.Put(k2, 2)
	if !m.DropOldest() {
		t.Fatal("DropOldest evicted nothing")
	}
	if _, ok := m.Get(k1); ok {
		t.Error("DropOldest kept the oldest entry")
	}
	if _, ok := m.Get(k2); !ok {
		t.Error("DropOldest evicted the newest entry")
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", m.Evictions())
	}
}

// TestMemoUnboundedNeverEvicts: with no entry or byte bound every entry is
// kept.
func TestMemoUnboundedNeverEvicts(t *testing.T) {
	m := newMemo(0, 0, nil)
	for i := 0; i < 1000; i++ {
		m.Put(compilequeue.NewKey().Int(int64(i)), i)
	}
	if m.Len() != 1000 || m.Evictions() != 0 {
		t.Errorf("unbounded memo: len=%d evictions=%d, want 1000/0", m.Len(), m.Evictions())
	}
}

// TestMemoByteBudgetEvictsLRU covers the payload-size accounting: entries
// cost their reported bytes, an insert past the byte budget evicts LRU
// entries until the total fits again, and Bytes tracks exactly.
func TestMemoByteBudgetEvictsLRU(t *testing.T) {
	key := func(i int) compilequeue.Key { return compilequeue.NewKey().Int(int64(i)) }
	m := newMemo(0, 100, func(v int) int64 { return int64(v) })
	m.Put(key(1), 40)
	m.Put(key(2), 40)
	if m.Bytes() != 80 {
		t.Fatalf("Bytes() = %d, want 80", m.Bytes())
	}
	m.Get(key(1)) // freshen 1: the byte-budget victim is now 2
	m.Put(key(3), 40)
	if m.Bytes() != 80 || m.Len() != 2 {
		t.Fatalf("after budget eviction: bytes=%d len=%d, want 80/2", m.Bytes(), m.Len())
	}
	if _, ok := m.Get(key(2)); ok {
		t.Error("LRU entry 2 survived the byte-budget eviction")
	}
	if _, ok := m.Get(key(1)); !ok {
		t.Error("freshened entry 1 was evicted")
	}
	if m.Evictions() != 1 {
		t.Errorf("Evictions() = %d, want 1", m.Evictions())
	}

	// Replacing a key re-sizes it; growing past the budget evicts.
	m.Put(key(1), 70) // table now {1:70, 3:40} = 110 > 100 -> evict LRU (3)
	if m.Len() != 1 || m.Bytes() != 70 {
		t.Fatalf("after in-place growth: len=%d bytes=%d, want 1/70", m.Len(), m.Bytes())
	}
	if _, ok := m.Get(key(3)); ok {
		t.Error("entry 3 survived the in-place growth past budget")
	}
}

// TestMemoBudgetAndCapCompose: whichever bound trips first evicts.
func TestMemoBudgetAndCapCompose(t *testing.T) {
	key := func(i int) compilequeue.Key { return compilequeue.NewKey().Int(int64(i)) }
	m := newMemo(3, 100, func(v int) int64 { return int64(v) })
	m.Put(key(1), 10)
	m.Put(key(2), 10)
	m.Put(key(3), 10)
	m.Put(key(4), 10) // entry cap trips: 4 entries, only 40 bytes
	if m.Len() != 3 || m.Bytes() != 30 {
		t.Fatalf("cap bound: len=%d bytes=%d, want 3/30", m.Len(), m.Bytes())
	}
	m.Put(key(5), 90) // byte budget trips: 3 entries would be 110 bytes
	if m.Bytes() > 100 || m.Len() > 3 {
		t.Fatalf("byte bound: len=%d bytes=%d, want <= 3 entries and <= 100 bytes", m.Len(), m.Bytes())
	}
}
