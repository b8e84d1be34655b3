// Package codecache is a content-addressed LRU cache for compiled regions,
// generic in its comparable key type, so a hit is decided by Go's map
// equality on the whole key and no hash is trusted. Keyed by dynopt's
// exact compile-input key it backs dynopt's process-wide output store,
// which holds and single-flights every build, and each fleet's shared code
// cache, which only counts its tenants' lookups.
//
// Layout and discipline:
//
//   - One mutex guards one table (cached values and fills in progress),
//     the recency clock and the counters. The cache is probed once per
//     compile request, never per dispatch — a benchmark fleet job makes
//     tens of lookups per run — so one lock costs nothing measurable and
//     every Stats snapshot is mutually consistent.
//   - Recency is a clock bumped under the mutex: every hit or insert
//     stamps the entry with clock+1. An insert past the byte budget
//     evicts the minimum stamp until the cache fits. Stamps are unique,
//     so the policy is exact LRU under any interleaving.
//   - Single-flight: the first Lookup to miss a key becomes the leader and
//     receives a Flight to complete; concurrent misses on the same key
//     receive the same Flight to wait on. A region being compiled by one
//     caller is therefore awaited, not recompiled, by every other caller.
//     Complete turns the flight's table entry into the cached value in one
//     critical section, so there is no window in which a second compile
//     of the same key can start: the compile count per key is exactly one
//     while the key stays cached.
//
// Determinism: the cache never makes a simulated decision. Hit/miss
// outcomes differ between a fleet run and a solo run, but only the cache
// counts them, so per-tenant simulated results are identical (proven by
// harness.TestFleetTenantDeterminism).
package codecache

import (
	"sync"

	"smarq/internal/compilequeue"
	"smarq/internal/telemetry"
)

// Key aliases the compilequeue content hash, the key type of New. Only the
// benchmark's lookup replay (bench/replay.go) still keys a cache by it.
type Key = compilequeue.Key

// Options configures a Cache.
type Options struct {
	// MaxBytes bounds the cache in payload bytes as reported by the size
	// function (0 = unbounded).
	MaxBytes int64
}

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

// entry is one key's slot in the table: a cached value, used its recency
// stamp, or, while flight is not nil, a fill in progress, which holds no
// value and counts in no Stats total.
type entry[V any] struct {
	val    V
	size   int64
	used   int64
	flight *Flight[V]
}

// Stats is a point-in-time snapshot of the cache counters, taken under
// the cache mutex: every snapshot is mutually consistent.
type Stats struct {
	Entries int64 // live entries
	Bytes   int64 // live payload bytes

	Lookups     int64 // Lookup calls
	Hits        int64 // served from the table
	Misses      int64 // not in the table at lookup time
	FlightWaits int64 // Lookup misses that joined another caller's flight
	Compiles    int64 // Lookup misses that became flight leaders
	Evictions   int64 // entries removed by the budget
	Contention  int64 // mutex acquisitions that had to block
}

// Cache is the content-addressed LRU cache from K to V. The zero value is
// not usable; construct with NewKeyed.
type Cache[K comparable, V any] struct {
	size func(V) int64
	opts Options

	mu      sync.Mutex
	entries map[K]*entry[V]
	clock   int64 // recency stamp source
	st      Stats

	// met holds the published telemetry instruments (PublishMetrics).
	metMu sync.Mutex
	met   *metrics
}

// NewKeyed returns an empty cache keyed by K. size reports the payload
// bytes of a value for the byte budget; nil means every value counts as
// zero bytes, so nothing is ever evicted.
func NewKeyed[K comparable, V any](opts Options, size func(V) int64) *Cache[K, V] {
	return &Cache[K, V]{
		size:    size,
		opts:    opts,
		entries: make(map[K]*entry[V]),
	}
}

// New returns an empty cache keyed by the content hash Key.
func New[V any](opts Options, size func(V) int64) *Cache[Key, V] { return NewKeyed[Key](opts, size) }

// lock takes the mutex, counting contention when it has to block.
func (c *Cache[K, V]) lock() {
	if c.mu.TryLock() {
		return
	}
	c.mu.Lock()
	c.st.Contention++
}

// Peek reports whether k is cached without touching recency or counters —
// the non-perturbing probe the LRU-oracle tests use.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok && e.flight == nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Lookup resolves k with single-flight:
//
//   - hit: (value, true, nil, false) — recency freshened;
//   - miss, first caller: (zero, false, flight, true) — the caller is the
//     leader and must eventually call Complete on the flight;
//   - miss, concurrent callers: (zero, false, flight, false) — wait on
//     flight.Done, then read flight.Value.
func (c *Cache[K, V]) Lookup(k K) (v V, hit bool, f *Flight[V], leader bool) {
	c.lock()
	defer c.mu.Unlock()
	c.st.Lookups++
	e, ok := c.entries[k]
	if ok && e.flight == nil {
		c.clock++
		e.used = c.clock
		c.st.Hits++
		return e.val, true, nil, false
	}
	c.st.Misses++
	if ok {
		c.st.FlightWaits++
		return v, false, e.flight, false
	}
	fl := &Flight[V]{done: make(chan struct{})}
	c.entries[k] = &entry[V]{flight: fl}
	c.st.Compiles++
	return v, false, fl, true
}

// Complete finishes a flight obtained from Lookup as its leader: the value
// is published to every waiter, and inserted into the table when insert is
// true (a failed compile passes false so the next request retries).
// Filling or removing the flight's entry in one critical section closes
// the duplicate-compile window; the write to f.val happens before
// close(done), so waiters read it race-free.
func (c *Cache[K, V]) Complete(k K, f *Flight[V], v V, insert bool) {
	c.lock()
	e := c.entries[k]
	if e == nil || e.flight != f {
		e = new(entry[V]) // a Put replaced the flight's entry
	}
	if insert {
		c.insertLocked(k, e, v)
	} else if e.flight == f {
		delete(c.entries, k)
	}
	c.mu.Unlock()
	f.val = v
	close(f.done)
}

// Put inserts k directly (no flight), replacing any existing entry. A
// cached key's entry is reused, so re-putting a key allocates nothing.
func (c *Cache[K, V]) Put(k K, v V) {
	c.lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil || e.flight != nil {
		e = new(entry[V])
	}
	c.insertLocked(k, e, v)
}

// insertLocked stores v as k's entry e (a new entry, or k's flight entry,
// which stops being a flight), then evicts least-recently-used entries
// until the byte budget holds. A value larger than the whole byte budget is
// admitted and then evicted with everything older. Caller holds c.mu.
func (c *Cache[K, V]) insertLocked(k K, e *entry[V], v V) {
	if prev, ok := c.entries[k]; ok && prev.flight == nil {
		c.st.Bytes -= prev.size
		c.st.Entries--
	}
	e.val, e.flight, e.size = v, nil, 0
	if c.size != nil {
		e.size = c.size(v)
	}
	c.clock++
	e.used = c.clock
	c.entries[k] = e
	c.st.Entries++
	c.st.Bytes += e.size
	for c.opts.MaxBytes > 0 && c.st.Bytes > c.opts.MaxBytes {
		var (
			vk   K
			vmin int64 = 1<<63 - 1
		)
		for kk, ee := range c.entries {
			if ee.flight == nil && ee.used < vmin {
				vk, vmin = kk, ee.used
			}
		}
		c.st.Bytes -= c.entries[vk].size
		c.st.Entries--
		c.st.Evictions++
		delete(c.entries, vk)
	}
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
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
)

// metrics holds the resolved instruments plus the counter values already
// published, so PublishMetrics adds deltas (telemetry counters are
// monotonic).
type metrics struct {
	lookups, hits, misses, flightWaits *telemetry.Counter
	compiles, evictions, contention    *telemetry.Counter
	entries, bytes                     *telemetry.Gauge
	last                               Stats
}

// PublishMetrics registers the cache's instruments against reg on first
// call and syncs them to the current counters (call it again at any point
// — at end of run, periodically from a monitor — to refresh). Safe for
// concurrent use; nil reg is a no-op.
func (c *Cache[K, V]) PublishMetrics(reg *telemetry.Registry) {
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
	m.last = st
}
