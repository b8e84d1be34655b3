package codecache

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smarq/internal/compilequeue"
	"smarq/internal/telemetry"
)

// mkKey derives a content key from a small integer the way the benchmark's
// lookup replay does — through the FNV fold — so the tests use real,
// well-spread hashes rather than consecutive integers.
func mkKey(i int) Key {
	return compilequeue.NewKey().Int(int64(i))
}

// seqModel is the sequential-model oracle: a plain map plus explicit
// recency stamps mirroring the cache's global clock. A lookup stamps
// clock+1 on a hit; Put stamps the inserted entry; budget eviction
// removes the minimum stamp. Run in lockstep with a Cache under
// single-threaded use, every hit/miss outcome, eviction victim, entry
// count, byte total and counter must match exactly.
type seqModel struct {
	vals    map[Key]int
	sizes   map[Key]int64
	stamps  map[Key]int64
	clock   int64
	bytes   int64
	maxByte int64

	hits, misses, evictions int64
}

func newSeqModel(maxByte int64) *seqModel {
	return &seqModel{
		vals:    map[Key]int{},
		sizes:   map[Key]int64{},
		stamps:  map[Key]int64{},
		maxByte: maxByte,
	}
}

func (m *seqModel) get(k Key) (int, bool) {
	v, ok := m.vals[k]
	if ok {
		m.clock++
		m.stamps[k] = m.clock
		m.hits++
	} else {
		m.misses++
	}
	return v, ok
}

func (m *seqModel) put(k Key, v int, size int64) {
	if old, ok := m.sizes[k]; ok {
		m.bytes -= old
	}
	m.clock++
	m.vals[k], m.sizes[k], m.stamps[k] = v, size, m.clock
	m.bytes += size
	for m.maxByte > 0 && m.bytes > m.maxByte {
		m.evictOldest()
	}
}

// evictOldest evicts the minimum stamp.
func (m *seqModel) evictOldest() {
	victim, vmin := Key(0), int64(1<<63-1)
	for kk, s := range m.stamps {
		if s < vmin {
			victim, vmin = kk, s
		}
	}
	m.bytes -= m.sizes[victim]
	delete(m.vals, victim)
	delete(m.sizes, victim)
	delete(m.stamps, victim)
	m.evictions++
}

// TestSequentialLRUOracle drives a Cache and the oracle through the same
// random lookup/put stream and requires identical hit/miss outcomes,
// values, eviction survivors (checked with the non-perturbing Peek),
// entry counts, byte totals and eviction counts after every step, and
// identical hit/miss totals at the end. A missing lookup leads a flight
// and settles it without inserting, as a failed compile does. The cases
// cover an entry bound (a byte bound over values of unit size), a byte
// bound, capacity 1, no bound at all (nothing is ever evicted), values
// weighing nothing (no size function: the byte total stays 0, so the
// budget never fills), and values larger than the whole byte budget
// (admitted, then evicted together with everything older, leaving the
// cache empty but usable).
func TestSequentialLRUOracle(t *testing.T) {
	sized := func(v int) int64 { return int64(v%64 + 1) }
	unit := func(int) int64 { return 1 }
	for _, tc := range []struct {
		name     string
		maxBytes int64
		size     func(int) int64
	}{
		{"entries8", 8, unit},
		{"bytes200", 200, sized},
		{"cap1", 1, unit},
		{"unbounded", 0, sized},
		{"weightless", 2, nil},
		{"oversized", 50, sized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int](Options{MaxBytes: tc.maxBytes}, tc.size)
			m := newSeqModel(tc.maxBytes)
			rng := rand.New(rand.NewSource(42))
			oversized := 0
			for step := 0; step < 5000; step++ {
				k := mkKey(rng.Intn(40))
				switch op := rng.Intn(10); {
				case op <= 5:
					gv, gok, f, leader := c.Lookup(k)
					if !gok {
						if !leader {
							t.Fatalf("step %d: a sequential miss did not lead its flight", step)
						}
						c.Complete(k, f, 0, false)
					}
					wv, wok := m.get(k)
					if gok != wok || (gok && gv != wv) {
						t.Fatalf("step %d: Lookup = (%d,%v), oracle (%d,%v)", step, gv, gok, wv, wok)
					}
				default:
					v := rng.Intn(1000)
					var size int64
					if tc.size != nil {
						size = tc.size(v)
					}
					c.Put(k, v)
					m.put(k, v, size)
					if tc.maxBytes > 0 && size > tc.maxBytes {
						oversized++
						if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
							t.Fatalf("step %d: oversized value left entries=%d bytes=%d", step, st.Entries, st.Bytes)
						}
					}
				}
				st := c.Stats()
				if st.Entries != int64(len(m.vals)) {
					t.Fatalf("step %d: Entries %d, oracle %d", step, st.Entries, len(m.vals))
				}
				if st.Bytes != m.bytes {
					t.Fatalf("step %d: Bytes %d, oracle %d", step, st.Bytes, m.bytes)
				}
				if st.Evictions != m.evictions {
					t.Fatalf("step %d: Evictions %d, oracle %d", step, st.Evictions, m.evictions)
				}
			}
			if tc.name == "oversized" && oversized == 0 {
				t.Fatal("stream inserted no value larger than the byte budget")
			}
			if st := c.Stats(); st.Hits != m.hits || st.Misses != m.misses {
				t.Fatalf("hits/misses = %d/%d, oracle %d/%d", st.Hits, st.Misses, m.hits, m.misses)
			}
			// Survivor set and values must match the oracle's exactly.
			for k, wv := range m.vals {
				gv, ok := c.Peek(k)
				if !ok || gv != wv {
					t.Fatalf("survivor %#x: Peek = (%d,%v), oracle holds %d", uint64(k), gv, ok, wv)
				}
			}
			for i := 0; i < 40; i++ {
				k := mkKey(i)
				if _, ok := c.Peek(k); ok {
					if _, want := m.vals[k]; !want {
						t.Fatalf("key %#x cached but evicted in the oracle", uint64(k))
					}
				}
			}
		})
	}
}

// TestConcurrentTorture hammers one cache from 8 goroutines with random
// puts, gets and single-flight lookups under a budget of 48 unit-size
// values; -race must stay silent, values must never cross keys, and at
// quiescence the budget and the entry/byte accounting must be exact. Half
// the lookups only read: their misses settle the flight without inserting.
func TestConcurrentTorture(t *testing.T) {
	const (
		goroutines = 8
		steps      = 4000
		keys       = 128
		maxEntries = 48
		maxBytes   = maxEntries
	)
	c := New[int64](Options{MaxBytes: maxBytes}, func(int64) int64 { return 1 })
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < steps; i++ {
				ki := rng.Intn(keys)
				k := mkKey(ki)
				// Values encode their key so a cross-key mixup is
				// detectable: v = ki*1000 + noise(<1000).
				switch op := rng.Intn(4); op {
				case 1:
					c.Put(k, int64(ki*1000+rng.Intn(1000)))
				case 3:
					if v, hit := c.Peek(k); hit && int(v/1000) != ki {
						t.Errorf("Peek(%d) hit value %d for a different key", ki, v)
						return
					}
				default:
					v, hit, f, leader := c.Lookup(k)
					switch {
					case hit:
						if int(v/1000) != ki {
							t.Errorf("Lookup(%d) hit value %d for a different key", ki, v)
							return
						}
					case leader:
						c.Complete(k, f, int64(ki*1000+rng.Intn(1000)), op == 2 && rng.Intn(4) != 0)
					default:
						<-f.Done()
						// A failed flight (insert=false) still publishes its
						// value; either way it must be key-consistent.
						if fv := f.Value(); int(fv/1000) != ki {
							t.Errorf("flight for %d carried value %d", ki, fv)
							return
						}
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()

	st := c.Stats()
	if st.Entries > maxEntries {
		t.Errorf("entries %d exceed budget %d at quiescence", st.Entries, maxEntries)
	}
	if st.Bytes > maxBytes {
		t.Errorf("bytes %d exceed budget %d at quiescence", st.Bytes, maxBytes)
	}
	// Recount from the table: the running totals must agree with it
	// exactly, and no flight may outlive its leader.
	var entries, bytes, flights int64
	for _, e := range c.entries {
		if e.flight != nil {
			flights++
			continue
		}
		entries++
		bytes += e.size
	}
	if entries != st.Entries || bytes != st.Bytes {
		t.Errorf("Stats hold %d entries / %d bytes, the table %d / %d",
			st.Entries, st.Bytes, entries, bytes)
	}
	if flights != 0 {
		t.Errorf("%d flights left at quiescence", flights)
	}
	if st.Lookups != st.Hits+st.Misses {
		t.Errorf("lookups %d != hits %d + misses %d", st.Lookups, st.Hits, st.Misses)
	}
	if st.FlightWaits+st.Compiles != st.Misses {
		t.Errorf("flight waits %d + compiles %d != misses %d", st.FlightWaits, st.Compiles, st.Misses)
	}
	if st.Compiles == 0 || st.Evictions == 0 {
		t.Errorf("torture run exercised no compiles (%d) or evictions (%d)",
			st.Compiles, st.Evictions)
	}
}

// TestSingleFlight proves exactly one compile per key under concurrent
// misses: N goroutines Lookup the same cold key at once; exactly one may
// be the leader, the rest must receive the leader's value, and the
// fleet-wide compile count for the key is 1.
func TestSingleFlight(t *testing.T) {
	const waiters = 16
	c := New[string](Options{}, nil)
	k := mkKey(7)

	var (
		leaders  atomic.Int64
		computes atomic.Int64
		start    = make(chan struct{})
		wg       sync.WaitGroup
	)
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, hit, f, leader := c.Lookup(k)
			switch {
			case hit:
				results[i] = v
			case leader:
				leaders.Add(1)
				computes.Add(1)
				c.Complete(k, f, "compiled-once", true)
				results[i] = "compiled-once"
			default:
				<-f.Done()
				results[i] = f.Value()
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if n := leaders.Load(); n != 1 {
		t.Fatalf("%d leaders for one key, want exactly 1", n)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d compiles for one key, want exactly 1", n)
	}
	for i, r := range results {
		if r != "compiled-once" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
	st := c.Stats()
	if st.Compiles != 1 {
		t.Fatalf("stats report %d compiles, want 1", st.Compiles)
	}
	if st.Hits+st.FlightWaits != waiters-1 {
		t.Fatalf("hits %d + flight waits %d, want %d non-leaders served",
			st.Hits, st.FlightWaits, waiters-1)
	}
	// A second round is all hits.
	for i := 0; i < 4; i++ {
		v, hit, _, leader := c.Lookup(k)
		if !hit || leader || v != "compiled-once" {
			t.Fatalf("post-fill Lookup = (%q, hit=%v, leader=%v)", v, hit, leader)
		}
	}
}

// TestFailedFlightRetries checks the retry path: a leader completing with
// insert=false leaves the key uncached, so the next Lookup elects a new
// leader instead of serving the failure forever.
func TestFailedFlightRetries(t *testing.T) {
	c := New[int](Options{}, nil)
	k := mkKey(3)
	_, hit, f, leader := c.Lookup(k)
	if hit || !leader {
		t.Fatalf("cold lookup: hit=%v leader=%v", hit, leader)
	}
	c.Complete(k, f, -1, false)
	if _, ok := c.Peek(k); ok {
		t.Fatal("failed flight was inserted")
	}
	_, hit, f2, leader := c.Lookup(k)
	if hit || !leader || f2 == f {
		t.Fatalf("retry lookup: hit=%v leader=%v fresh-flight=%v", hit, leader, f2 != f)
	}
	c.Complete(k, f2, 42, true)
	if v, ok := c.Peek(k); !ok || v != 42 {
		t.Fatalf("retry result not cached: (%d, %v)", v, ok)
	}
}

// TestPutDuringFlight: a flight is a table entry until its leader
// completes, so a Put of the key meanwhile replaces it. Lookups then hit
// the Put value, a failed completion leaves that value, and a successful
// one replaces it; the entry count holds throughout.
func TestPutDuringFlight(t *testing.T) {
	for _, insert := range []bool{false, true} {
		c := New[int](Options{}, nil)
		k := mkKey(5)
		_, _, f, leader := c.Lookup(k)
		if !leader || c.Stats().Entries != 0 {
			t.Fatalf("cold lookup: leader=%v, %d entries", leader, c.Stats().Entries)
		}
		c.Put(k, 7)
		if v, hit, _, _ := c.Lookup(k); !hit || v != 7 {
			t.Fatalf("lookup after Put: (%d, %v)", v, hit)
		}
		c.Complete(k, f, 9, insert)
		want := 7
		if insert {
			want = 9
		}
		if v, ok := c.Peek(k); !ok || v != want || c.Stats().Entries != 1 {
			t.Errorf("insert=%v: Peek = (%d, %v), %d entries; want %d in 1", insert, v, ok, c.Stats().Entries, want)
		}
		<-f.Done()
		if f.Value() != 9 {
			t.Errorf("insert=%v: the flight's waiters read %d, want 9", insert, f.Value())
		}
	}
}

// TestPublishMetrics checks instrument registration and delta syncing:
// calling it twice must not double-count already-published increments.
func TestPublishMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New[int](Options{MaxBytes: 2}, func(int) int64 { return 1 })
	for i := 0; i < 4; i++ {
		c.Put(mkKey(i), i)
	}
	c.PublishMetrics(reg)
	c.PublishMetrics(reg) // second sync must add only the (empty) delta
	if got := reg.Counter(mEvictions).Value(); got != 2 {
		t.Fatalf("published evictions %d, want 2", got)
	}
	if got := reg.Gauge(gEntries).Value(); got != 2 {
		t.Fatalf("published entries gauge %d, want 2", got)
	}
	hits := c.Stats().Hits
	for i := 0; i < 3; i++ {
		k := mkKey(999)
		if _, hit, f, _ := c.Lookup(k); !hit { // misses
			c.Complete(k, f, 0, false)
		}
	}
	c.PublishMetrics(reg)
	if got := reg.Counter(mMisses).Value(); got < 3 {
		t.Fatalf("published misses %d, want >= 3", got)
	}
	if got := reg.Counter(mHits).Value(); got != hits {
		t.Fatalf("published hits %d, want %d", got, hits)
	}
}

// TestCodecacheMetricsConcurrent hammers the cache from many tenant
// goroutines — lookups, flight completions, read-only lookups — while a monitor
// goroutine repeatedly delta-syncs PublishMetrics, then checks the
// published instruments against the cache's own Stats at quiescence:
// every counter must match exactly. Every Stats snapshot, mid-run ones
// included, must balance: hits+misses cover every lookup, and every miss
// either led or joined a flight. Run with -race: the publish path races
// real mutations.
func TestCodecacheMetricsConcurrent(t *testing.T) {
	const (
		tenants = 8
		keys    = 64
		iters   = 400
	)
	reg := telemetry.NewRegistry()
	c := New[int](Options{MaxBytes: 48}, func(int) int64 { return 1 })

	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.PublishMetrics(reg)
				if st := c.Stats(); st.Hits+st.Misses != st.Lookups ||
					st.FlightWaits+st.Compiles != st.Misses {
					t.Errorf("mid-run snapshot unbalanced: %+v", st)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for tenant := 0; tenant < tenants; tenant++ {
		wg.Add(1)
		go func(tenant int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(tenant) + 1))
			for i := 0; i < iters; i++ {
				k := mkKey(rng.Intn(keys))
				// One lookup in three only reads: its miss settles the
				// flight without inserting.
				insert := rng.Intn(3) != 0
				if _, hit, f, leader := c.Lookup(k); !hit {
					if leader {
						c.Complete(k, f, tenant, insert)
					} else {
						<-f.Done()
					}
				}
			}
		}(tenant)
	}
	wg.Wait()
	close(stop)
	monitor.Wait()

	// Final delta-sync at quiescence, then the books must balance.
	c.PublishMetrics(reg)
	c.PublishMetrics(reg) // idempotent: the second sync adds an empty delta
	st := c.Stats()

	for _, chk := range []struct {
		name string
		got  int64
		want int64
	}{
		{mLookups, reg.Counter(mLookups).Value(), st.Lookups},
		{mHits, reg.Counter(mHits).Value(), st.Hits},
		{mMisses, reg.Counter(mMisses).Value(), st.Misses},
		{mFlightWaits, reg.Counter(mFlightWaits).Value(), st.FlightWaits},
		{mCompiles, reg.Counter(mCompiles).Value(), st.Compiles},
		{mEvictions, reg.Counter(mEvictions).Value(), st.Evictions},
		{mContention, reg.Counter(mContention).Value(), st.Contention},
	} {
		if chk.got != chk.want {
			t.Errorf("published %s = %d, Stats say %d", chk.name, chk.got, chk.want)
		}
	}
	if st.Hits+st.Misses != st.Lookups {
		t.Errorf("hits %d + misses %d != lookups %d", st.Hits, st.Misses, st.Lookups)
	}
	if st.FlightWaits+st.Compiles != st.Misses {
		t.Errorf("flight waits %d + compiles %d != misses %d",
			st.FlightWaits, st.Compiles, st.Misses)
	}
	if got := reg.Gauge(gEntries).Value(); got != st.Entries {
		t.Errorf("entries gauge %d, Stats say %d", got, st.Entries)
	}
}

// TestMemoHitZeroAllocs pins a cache hit at zero heap allocations: a
// Lookup hit, the path dynopt's output store and fleet cache take, is a
// map read plus counter and recency updates under the mutex, and so is a
// re-Put of a cached key. The key is a struct holding a long string, like
// dynopt's compile-input key, and the lookup uses an equal copy of it: a
// hit compares content, not pointers, and a key that differs in any part
// misses. dynopt.TestReuseDecisionZeroAllocs pins the other half, building
// the key.
func TestMemoHitZeroAllocs(t *testing.T) {
	type key struct {
		content string
		n       int
	}
	type region struct{ cycles int }
	c := NewKeyed[key, *region](Options{}, nil)
	k := key{content: strings.Repeat("superblock", 100), n: 3}
	want := &region{cycles: 42}
	c.Put(k, want)
	probe := key{content: strings.Clone(k.content), n: 3}
	allocs := testing.AllocsPerRun(200, func() {
		if got, hit, f, _ := c.Lookup(probe); !hit || got != want || f != nil {
			t.Fatal("Lookup missed a cached key")
		}
	})
	if allocs != 0 {
		t.Errorf("a cache hit allocates %v times per lookup, want 0", allocs)
	}
	// Re-putting the cached key reuses its entry.
	allocs = testing.AllocsPerRun(200, func() { c.Put(probe, want) })
	if allocs != 0 {
		t.Errorf("a re-Put of a cached key allocates %v times, want 0", allocs)
	}
	for _, other := range []key{{content: k.content, n: 4}, {content: k.content[1:], n: 3}} {
		if _, hit := c.Peek(other); hit {
			t.Errorf("a key differing from the cached one hit: %d bytes, n %d", len(other.content), other.n)
		}
	}
}
