// The fleet's shared code cache: a thin, type-opaque wrapper binding
// codecache's generic cache to dynopt's compile-input keys. The
// wrapper exists so the concrete key type (compileKey) stays unexported
// while fleet drivers — harness.RunFleet, smarq-bench — can still
// construct one cache, hand it to many Systems via
// CompileConfig.SharedCache, and read its aggregate statistics.
package dynopt

import (
	"smarq/internal/codecache"
	"smarq/internal/telemetry"
)

// CodeCache is the simulated code cache a fleet of concurrently running
// Systems shares: an unbounded record of the exact compile inputs
// (compileKey) its tenants have requested, compared by Go's map equality,
// so no hash decides a hit. Construct one with NewCodeCache, set it on
// every tenant's CompileConfig.SharedCache, and run the Systems on
// separate goroutines. Every compile request looks its key up, and only
// the cache counts the outcome: identical regions, of one program or of
// several, count one compile fleet-wide, so Compiles is the number of
// distinct keys and Hits+FlightWaits is Lookups-Compiles at any
// interleaving. The cache holds no code and decides no job: the process's
// output store holds and single-flights every build. So every tenant's
// simulated results, stats and events are byte-identical to its solo run,
// at any chaos setting.
type CodeCache struct {
	cache *codecache.Cache[compileKey, struct{}]
}

// NewCodeCache returns an empty shared code cache. It holds no code and
// counts a fleet's few distinct keys, so it has no budget.
func NewCodeCache() *CodeCache {
	return &CodeCache{cache: codecache.NewKeyed[compileKey, struct{}](codecache.Options{}, nil)}
}

// Stats snapshots the cache counters (exact at quiescence — after every
// tenant using the cache has finished).
func (cc *CodeCache) Stats() codecache.Stats { return cc.cache.Stats() }

// PublishMetrics registers and syncs the cache's telemetry instruments
// against reg (see codecache.Cache.PublishMetrics).
func (cc *CodeCache) PublishMetrics(reg *telemetry.Registry) {
	cc.cache.PublishMetrics(reg)
}
