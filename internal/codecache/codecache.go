// Package codecache is a sharded, content-addressed cache for compiled
// regions, keyed by compilequeue's FNV-1a content hash. It is dynopt's
// fleet compile-output cache: a fleet of concurrently running
// dynopt.Systems shares one (safe — and fast — under true cross-goroutine
// contention). Under single-threaded use a one-shard instance is exact
// LRU.
//
// Layout and discipline:
//
//   - N shards (a power of two), selected by the key's high bits. Content
//     hashes are uniform, so high bits spread as well as low bits and keep
//     the shard index a single shift.
//   - Hits are lock-free: each shard publishes its entry table as a
//     copy-on-write map snapshot behind an atomic.Pointer. A reader loads
//     the snapshot, indexes it, and bumps the entry's recency stamp with
//     one atomic store; it never takes the shard mutex.
//   - Mutations (insert, evict, single-flight transitions) take the shard
//     mutex and install a fresh snapshot. Tables hold compiled regions —
//     hundreds of entries, not millions — so the copy is cheap relative
//     to a compile, and in exchange the hit path stays wait-free.
//   - Recency is a global atomic clock: every hit or insert stamps the
//     entry with clock+1. Eviction scans all shards for the minimum stamp
//     — exact LRU under sequential use, approximate (scan-min) under
//     concurrency — and honors a *global* entry/byte budget rather than a
//     per-shard one, so one hot tenant cannot starve the others' shards.
//   - Cross-tenant single-flight: the first Lookup to miss a key becomes
//     the leader and receives a Flight to complete; concurrent misses on
//     the same key receive the same Flight to wait on. A region being
//     compiled by one tenant is therefore awaited, not recompiled, by
//     every other tenant. Complete inserts the value into the table
//     *before* removing the flight (both under the shard mutex), so there
//     is no window in which a second compile of the same key can start:
//     the fleet-wide compile count per key is exactly one.
//
// Determinism: the cache never makes a simulated decision. Hit/miss
// outcomes differ between a fleet run and a solo run, but dynopt replays a
// hit's modelled costs exactly as a fresh compile's, so per-tenant
// simulated results are identical modulo the hit/miss counters themselves
// (proven by harness.TestFleetTenantDeterminism).
package codecache

import (
	"strconv"
	"sync"
	"sync/atomic"

	"smarq/internal/compilequeue"
	"smarq/internal/telemetry"
)

// Key aliases the compilequeue content hash so callers build keys with the
// same NewKey/Word/Int/Bool fold.
type Key = compilequeue.Key

// Options configures a Cache.
type Options struct {
	// Shards is the shard count, rounded up to a power of two; 0 selects
	// DefaultShards.
	Shards int
	// MaxEntries bounds the cache globally in entries (0 = unbounded).
	MaxEntries int64
	// MaxBytes bounds the cache globally in payload bytes as reported by
	// the size function (0 = unbounded).
	MaxBytes int64
}

// DefaultShards is the shard count when Options.Shards is 0.
const DefaultShards = 16

// Flight is one in-progress fill of a key: the leader computes the value
// and calls Cache.Complete; everyone else selects on Done and reads Value.
type Flight[V any] struct {
	done chan struct{}
	val  V
}

// Done is closed once the flight completes.
func (f *Flight[V]) Done() <-chan struct{} { return f.done }

// Value returns the flight's result; valid only after Done is closed.
func (f *Flight[V]) Value() V { return f.val }

// entry is one cached value. val and size are immutable after publication
// (entries are published by swapping in a fresh map snapshot); used is the
// recency stamp, atomically rewritten on every hit.
type entry[V any] struct {
	val  V
	size int64
	used atomic.Int64
}

type shard[V any] struct {
	mu sync.Mutex
	// snap is the copy-on-write entry table; readers load it without the
	// mutex, writers replace it under the mutex.
	snap    atomic.Pointer[map[Key]*entry[V]]
	flights map[Key]*Flight[V]
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries int64 // live entries
	Bytes   int64 // live payload bytes

	Lookups     int64 // Lookup calls
	Hits        int64 // served from the table
	Misses      int64 // not in the table at lookup time
	FlightWaits int64 // misses that joined another caller's flight
	Compiles    int64 // misses that became flight leaders
	Evictions   int64 // entries removed by the budget
	Contention  int64 // shard-mutex acquisitions that had to block

	// ShardEntries is the per-shard occupancy at snapshot time.
	ShardEntries []int
}

// Cache is the sharded content-addressed cache. The zero value is not
// usable; construct with New.
type Cache[V any] struct {
	size   func(V) int64
	shards []shard[V]
	shift  uint // shard index = key >> shift (high bits)

	maxEntries int64
	maxBytes   int64

	clock   atomic.Int64 // recency stamp source
	entries atomic.Int64
	bytes   atomic.Int64

	lookups     atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	flightWaits atomic.Int64
	compiles    atomic.Int64
	evictions   atomic.Int64
	contention  atomic.Int64

	// evictMu serializes budget enforcement so concurrent inserters do not
	// race each other into over-eviction.
	evictMu sync.Mutex

	// met holds the published telemetry instruments (PublishMetrics).
	metMu sync.Mutex
	met   *metrics
}

// New returns an empty cache. size reports the payload bytes of a value
// for the byte budget; nil means every value counts as zero bytes (only
// the entry budget applies).
func New[V any](opts Options, size func(V) int64) *Cache[V] {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so the shard index is a shift.
	p := 1
	for p < n {
		p <<= 1
	}
	c := &Cache[V]{
		size:       size,
		shards:     make([]shard[V], p),
		maxEntries: opts.MaxEntries,
		maxBytes:   opts.MaxBytes,
	}
	shift := uint(64)
	for b := p; b > 1; b >>= 1 {
		shift--
	}
	c.shift = shift
	empty := make(map[Key]*entry[V])
	for i := range c.shards {
		c.shards[i].snap.Store(&empty)
		c.shards[i].flights = make(map[Key]*Flight[V])
	}
	return c
}

// shardOf selects the shard by the key's high bits.
func (c *Cache[V]) shardOf(k Key) *shard[V] {
	return &c.shards[uint64(k)>>c.shift]
}

// lock takes the shard mutex, counting contention when it has to block.
func (c *Cache[V]) lock(sh *shard[V]) {
	if sh.mu.TryLock() {
		return
	}
	c.contention.Add(1)
	sh.mu.Lock()
}

// Peek reports whether k is cached without touching recency or counters —
// the non-perturbing probe the LRU-oracle tests use.
func (c *Cache[V]) Peek(k Key) (V, bool) {
	if e, ok := (*c.shardOf(k).snap.Load())[k]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Lookup resolves k with cross-tenant single-flight:
//
//   - hit: (value, true, nil, false) — lock-free, recency freshened;
//   - miss, first caller: (zero, false, flight, true) — the caller is the
//     leader and must eventually call Complete on the flight;
//   - miss, concurrent callers: (zero, false, flight, false) — wait on
//     flight.Done, then read flight.Value.
func (c *Cache[V]) Lookup(k Key) (v V, hit bool, f *Flight[V], leader bool) {
	c.lookups.Add(1)
	sh := c.shardOf(k)
	if e, ok := (*sh.snap.Load())[k]; ok {
		e.used.Store(c.clock.Add(1))
		c.hits.Add(1)
		return e.val, true, nil, false
	}
	c.lock(sh)
	// Re-check under the mutex: Complete inserts before removing the
	// flight, so a key is always in the table, in flight, or genuinely
	// absent — never in between.
	if e, ok := (*sh.snap.Load())[k]; ok {
		sh.mu.Unlock()
		e.used.Store(c.clock.Add(1))
		c.hits.Add(1)
		return e.val, true, nil, false
	}
	if fl, ok := sh.flights[k]; ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		c.flightWaits.Add(1)
		return v, false, fl, false
	}
	fl := &Flight[V]{done: make(chan struct{})}
	sh.flights[k] = fl
	sh.mu.Unlock()
	c.misses.Add(1)
	c.compiles.Add(1)
	return v, false, fl, true
}

// Complete finishes a flight obtained from Lookup as its leader: the value
// is published to every waiter, and inserted into the table when insert is
// true (a failed compile passes false so the next request retries).
// Insert-then-remove under the shard mutex closes the duplicate-compile
// window; the publication write to f.val happens before close(done), so
// waiters read it race-free.
func (c *Cache[V]) Complete(k Key, f *Flight[V], v V, insert bool) {
	sh := c.shardOf(k)
	c.lock(sh)
	if insert {
		c.insertLocked(sh, k, v)
	}
	delete(sh.flights, k)
	sh.mu.Unlock()
	f.val = v
	close(f.done)
	if insert {
		c.enforceBudget()
	}
}

// Put inserts k directly (no flight), replacing any existing entry.
func (c *Cache[V]) Put(k Key, v V) {
	sh := c.shardOf(k)
	c.lock(sh)
	c.insertLocked(sh, k, v)
	sh.mu.Unlock()
	c.enforceBudget()
}

// insertLocked swaps in a fresh snapshot containing k. Caller holds sh.mu.
func (c *Cache[V]) insertLocked(sh *shard[V], k Key, v V) {
	old := *sh.snap.Load()
	m := make(map[Key]*entry[V], len(old)+1)
	for kk, ee := range old {
		m[kk] = ee
	}
	e := &entry[V]{val: v}
	if c.size != nil {
		e.size = c.size(v)
	}
	e.used.Store(c.clock.Add(1))
	if prev, ok := m[k]; ok {
		c.bytes.Add(-prev.size)
		c.entries.Add(-1)
	}
	m[k] = e
	sh.snap.Store(&m)
	c.entries.Add(1)
	c.bytes.Add(e.size)
}

// over reports whether either global budget is exceeded.
func (c *Cache[V]) over() bool {
	return (c.maxEntries > 0 && c.entries.Load() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes.Load() > c.maxBytes)
}

// enforceBudget evicts minimum-stamp entries until the cache is back
// within its global budgets. Serialized so concurrent inserters cannot
// over-evict each other's survivors.
func (c *Cache[V]) enforceBudget() {
	if c.maxEntries <= 0 && c.maxBytes <= 0 {
		return
	}
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	for c.over() {
		if !c.evictOne() {
			return
		}
	}
}

// evictOne removes the entry with the globally minimum recency stamp.
// Stamps are unique (one atomic clock), so the victim is unambiguous at
// scan time; under concurrency a racing hit may freshen the victim between
// the scan and the removal, making the policy scan-min approximate rather
// than strict LRU — an accepted trade for the lock-free hit path.
func (c *Cache[V]) evictOne() bool {
	var (
		vs   *shard[V]
		vk   Key
		vmin int64 = 1<<63 - 1
	)
	for i := range c.shards {
		sh := &c.shards[i]
		for k, e := range *sh.snap.Load() {
			if u := e.used.Load(); u < vmin {
				vmin, vs, vk = u, sh, k
			}
		}
	}
	if vs == nil {
		return false
	}
	c.lock(vs)
	old := *vs.snap.Load()
	e, ok := old[vk]
	if ok {
		m := make(map[Key]*entry[V], len(old)-1)
		for kk, ee := range old {
			if kk != vk {
				m[kk] = ee
			}
		}
		vs.snap.Store(&m)
		c.entries.Add(-1)
		c.bytes.Add(-e.size)
		c.evictions.Add(1)
	}
	vs.mu.Unlock()
	return ok
}

// Stats snapshots the counters. Taken while other goroutines run, the
// counters are individually atomic but not mutually consistent; at
// quiescence the snapshot is exact.
func (c *Cache[V]) Stats() Stats {
	st := Stats{
		Entries:      c.entries.Load(),
		Bytes:        c.bytes.Load(),
		Lookups:      c.lookups.Load(),
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		FlightWaits:  c.flightWaits.Load(),
		Compiles:     c.compiles.Load(),
		Evictions:    c.evictions.Load(),
		Contention:   c.contention.Load(),
		ShardEntries: make([]int, len(c.shards)),
	}
	for i := range c.shards {
		st.ShardEntries[i] = len(*c.shards[i].snap.Load())
	}
	return st
}

// Metric instrument names, as they appear in a -metrics JSON snapshot.
const (
	mLookups     = "codecache_lookups"
	mHits        = "codecache_hits"
	mMisses      = "codecache_misses"
	mFlightWaits = "codecache_flight_waits"
	mCompiles    = "codecache_compiles"
	mEvictions   = "codecache_evictions"
	mContention  = "codecache_contention"
	gEntries     = "codecache_entries"
	gBytes       = "codecache_bytes"
	gShardMax    = "codecache_shard_max_entries"
	// gShardEntries is the per-shard occupancy family; series carry a
	// shard="N" label (telemetry.Labeled).
	gShardEntries = "codecache_shard_entries"
)

// metrics holds the resolved instruments plus the counter values already
// published, so PublishMetrics adds deltas (telemetry counters are
// monotonic).
type metrics struct {
	lookups, hits, misses, flightWaits *telemetry.Counter
	compiles, evictions, contention    *telemetry.Counter
	entries, bytes, shardMax           *telemetry.Gauge
	// shardEntries is the per-shard occupancy as labeled series
	// (codecache_shard_entries{shard="N"}), one gauge per shard.
	shardEntries []*telemetry.Gauge
	last         Stats
}

// PublishMetrics registers the cache's instruments against reg on first
// call and syncs them to the current counters (call it again at any point
// — at end of run, periodically from a monitor — to refresh). Safe for
// concurrent use; nil reg is a no-op.
func (c *Cache[V]) PublishMetrics(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	c.metMu.Lock()
	defer c.metMu.Unlock()
	if c.met == nil {
		c.met = &metrics{
			lookups:     reg.Counter(mLookups),
			hits:        reg.Counter(mHits),
			misses:      reg.Counter(mMisses),
			flightWaits: reg.Counter(mFlightWaits),
			compiles:    reg.Counter(mCompiles),
			evictions:   reg.Counter(mEvictions),
			contention:  reg.Counter(mContention),
			entries:     reg.Gauge(gEntries),
			bytes:       reg.Gauge(gBytes),
			shardMax:    reg.Gauge(gShardMax),

			shardEntries: make([]*telemetry.Gauge, len(c.shards)),
		}
		for i := range c.shards {
			c.met.shardEntries[i] = reg.Gauge(telemetry.Labeled(gShardEntries,
				telemetry.Label{Name: "shard", Value: strconv.Itoa(i)}))
		}
	}
	st := c.Stats()
	m := c.met
	m.lookups.Add(st.Lookups - m.last.Lookups)
	m.hits.Add(st.Hits - m.last.Hits)
	m.misses.Add(st.Misses - m.last.Misses)
	m.flightWaits.Add(st.FlightWaits - m.last.FlightWaits)
	m.compiles.Add(st.Compiles - m.last.Compiles)
	m.evictions.Add(st.Evictions - m.last.Evictions)
	m.contention.Add(st.Contention - m.last.Contention)
	m.entries.Set(st.Entries)
	m.bytes.Set(st.Bytes)
	maxOcc := 0
	for i, n := range st.ShardEntries {
		if n > maxOcc {
			maxOcc = n
		}
		m.shardEntries[i].Set(int64(n))
	}
	m.shardMax.Set(int64(maxOcc))
	m.last = st
}
