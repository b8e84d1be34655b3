// The fleet-wide compile cache: a thin, type-opaque wrapper binding
// codecache's generic sharded cache to dynopt's compile outputs. The
// wrapper exists so the concrete payload type (*compileOutput) stays
// unexported while fleet drivers — harness.RunFleet, smarq-bench — can
// still construct one cache, hand it to many Systems via
// CompileConfig.SharedCache, and read its aggregate statistics.
package dynopt

import (
	"smarq/internal/codecache"
	"smarq/internal/telemetry"
)

// CodeCache is a sharded content-addressed compile cache shared by many
// concurrently running Systems. Construct one with NewCodeCache, set it
// on every tenant's CompileConfig.SharedCache, and run the Systems on
// separate goroutines: identical regions compile exactly once fleet-wide
// (cross-tenant single-flight), and every tenant's simulated results stay
// byte-identical to its solo run modulo the hit/miss/dedupe counters.
type CodeCache struct {
	cache *codecache.Cache[*compileOutput]
}

// NewCodeCache returns an empty shared compile cache. opts.MaxBytes
// bounds retained compiled-region bytes, as reported by
// vliw.CompiledRegion.Bytes.
func NewCodeCache(opts codecache.Options) *CodeCache {
	return &CodeCache{cache: codecache.New(opts, compileOutputBytes)}
}

// Stats snapshots the cache counters (exact at quiescence — after every
// tenant using the cache has finished).
func (cc *CodeCache) Stats() codecache.Stats { return cc.cache.Stats() }

// PublishMetrics registers and syncs the cache's telemetry instruments
// against reg (see codecache.Cache.PublishMetrics).
func (cc *CodeCache) PublishMetrics(reg *telemetry.Registry) {
	cc.cache.PublishMetrics(reg)
}
