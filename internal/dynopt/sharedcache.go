// The fleet-wide compile cache: a thin, type-opaque wrapper binding
// codecache's generic LRU cache to dynopt's compile-input keys and
// compile outputs. The wrapper exists so the concrete key and payload
// types (compileKey, *compileOutput) stay unexported while fleet drivers
// — harness.RunFleet, smarq-bench — can still construct one cache, hand
// it to many Systems via CompileConfig.SharedCache, and read its
// aggregate statistics.
package dynopt

import (
	"smarq/internal/codecache"
	"smarq/internal/telemetry"
)

// CodeCache is an LRU compile cache shared by many concurrently running
// Systems, keyed by the exact compile input (compileKey): a hit needs the
// same superblock content, configuration and sets, compared by Go's map
// equality, so no hash decides it. Construct one with NewCodeCache, set
// it on every tenant's CompileConfig.SharedCache, and run the Systems on
// separate goroutines: identical regions, of one program or of several,
// compile exactly once fleet-wide (cross-tenant single-flight), and every
// tenant's simulated results stay byte-identical to its solo run modulo
// the hit/miss/dedupe counters.
type CodeCache struct {
	cache *codecache.Cache[compileKey, *compileOutput]
}

// NewCodeCache returns an empty shared compile cache. opts.MaxBytes
// bounds retained compiled-region bytes, as reported by
// vliw.CompiledRegion.Bytes.
func NewCodeCache(opts codecache.Options) *CodeCache {
	return &CodeCache{cache: codecache.NewKeyed[compileKey](opts, compileOutputBytes)}
}

// Stats snapshots the cache counters (exact at quiescence — after every
// tenant using the cache has finished).
func (cc *CodeCache) Stats() codecache.Stats { return cc.cache.Stats() }

// PublishMetrics registers and syncs the cache's telemetry instruments
// against reg (see codecache.Cache.PublishMetrics).
func (cc *CodeCache) PublishMetrics(reg *telemetry.Registry) {
	cc.cache.PublishMetrics(reg)
}
