// Package telemetry is the zero-cost-when-disabled observability layer of
// the dynamic optimization pipeline: cycle-stamped, value-typed runtime
// events in a fixed-capacity ring buffer (tracer.go), pluggable trace
// sinks — JSONL and Chrome trace-event JSON viewable in Perfetto
// (sinks.go) — and an aggregating metrics registry of counters and
// fixed-bucket histograms (metrics.go).
//
// Everything is stamped with the *simulated* cycle clock, never the wall
// clock, so two runs of the same workload, configuration and seed emit
// byte-identical traces — traces are diffable artifacts, not logs. The
// enabled hot path allocates nothing: events are value structs copied
// into a pre-allocated ring, counters and histogram buckets are atomic
// adds on pre-registered instruments, and encoding happens only when a
// sink drains. Disabled, the whole layer is a nil check at each emit
// site.
package telemetry

import "strconv"

// Kind classifies a runtime event.
type Kind uint8

const (
	// KindMeta labels a run (Name carries the label); sinks use it to
	// name the per-run "process" in multi-run traces.
	KindMeta Kind = iota
	// KindCompile: a region was translated, optimized, scheduled and
	// installed (A=scheduled ops, B=guest insts, C=mem ops, D=alias
	// working set, Cost=static region cycles).
	KindCompile
	// KindDispatch: a compiled region was entered.
	KindDispatch
	// KindCommit: a region execution committed (Cost=region+commit
	// cycles, A=alias-queue occupancy high-water, B=stores buffered).
	KindCommit
	// KindRollback: a region execution rolled back (Cause says why,
	// Cost=cycles burned including the rollback penalty, A=ops executed
	// before the abort).
	KindRollback
	// KindAliasException: the alias hardware identified a violated
	// speculation pair (A=checker op ID, B=origin op ID).
	KindAliasException
	// KindGuardFail: an off-trace side exit (A=consecutive fail streak).
	KindGuardFail
	// KindDemote: the recovery controller moved the region down the
	// speculation ladder (Tier=from, To=to, Cause says which detector).
	KindDemote
	// KindPromote: the region re-earned a rung (Tier=from, To=to).
	KindPromote
	// KindEvict: the code cache bound evicted the region.
	KindEvict
	// KindDrop: the region was dropped from the code cache (Cause:
	// guard-fail streak or a failed recompilation).
	KindDrop
	// KindChaos: the fault injector fired (Cause says which fault; A=the
	// draw's ordinal among the region's draws of that fault class, so
	// Cause, Region and A name the fault).
	KindChaos
	// KindCompileEnqueue: a background compilation was enqueued
	// (Cost=modelled compile latency in cycles, A=queue depth after the
	// enqueue, B=1 when the fleet's shared cache already held the result).
	KindCompileEnqueue
	// KindCompileCancel: a pending background compilation was thrown away
	// before installing (Cause: stale inputs, a pinned region, or the end
	// of the run).
	KindCompileCancel
	// KindHostFault: a host-side compile fault was contained (Cause:
	// worker panic, watchdog kill, or a rejected poisoned result).
	KindHostFault
	// KindHealth: the system health controller moved on the global
	// degradation ladder (A=from level, B=to level, Cause says which
	// observation class triggered a demotion; CauseNone for promotions).
	KindHealth
	// KindQuarantine: a region was permanently barred from compiling
	// (Cause: a worker panic in its compile, or it became hot while the
	// health controller sat at the quarantine level).
	KindQuarantine

	numKinds
)

// Cause qualifies rollbacks, tier moves, drops and chaos injections.
type Cause uint8

const (
	CauseNone Cause = iota
	// CauseAlias is a genuine alias exception (a real conflict pair).
	CauseAlias
	// CauseGuard is an off-trace side exit.
	CauseGuard
	// CauseFault is a guest memory fault inside the region.
	CauseFault
	// CauseInjectedAlias / CauseInjectedGuard mark chaos-synthesized
	// outcomes that never executed the region.
	CauseInjectedAlias
	CauseInjectedGuard
	// CauseRate: the sliding-window rollback rate crossed the demote
	// threshold (includes the consecutive-rollback storm detector).
	CauseRate
	// CauseFaultStorm: clustered speculation-induced faults.
	CauseFaultStorm
	// CausePairRepeat: pair-level hardening provably failed (a repeated
	// blacklisted pair or re-pinned ALAT load).
	CausePairRepeat
	// CauseChronic: the lifetime alias-exception cap was passed.
	CauseChronic
	// CauseCompileFail: a (re)compilation failed.
	CauseCompileFail
	// CauseCorrupt: injected post-rollback state corruption.
	CauseCorrupt
	// CauseStale: a pending background compilation's inputs (tier,
	// blacklist, pins or superblock) changed before it could install.
	CauseStale
	// CauseRunEnd: the run finished with the compilation still pending.
	CauseRunEnd
	// CauseWorkerPanic: a compile job panicked in its worker and was
	// converted into a failed-compile event.
	CauseWorkerPanic
	// CauseWatchdog: a compile overran its watchdog deadline in simulated
	// cycles and was killed at the deadline.
	CauseWatchdog
	// CausePoison: install-time validation (content checksum or
	// structural invariants) rejected a corrupted compile result.
	CausePoison
	// CauseHealth: the system health controller forced the action (a
	// degradation-ladder consequence, e.g. quarantining a new region).
	CauseHealth

	numCauses
)

var causeNames = [numCauses]string{
	"", "alias", "guard", "fault", "injected-alias", "injected-guard",
	"rollback-rate", "fault-storm", "pair-repeat", "chronic",
	"compile-fail", "corrupt", "stale", "run-end",
	"worker-panic", "watchdog", "poison", "health",
}

// String returns the cause name ("" for CauseNone).
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "cause(" + strconv.Itoa(int(c)) + ")"
}

// TierName resolves a speculation-ladder rung to its name in encoded
// output. The default formats the raw number; the dynopt package installs
// the real ladder names at init so telemetry needs no import of it.
var TierName = func(t int) string { return "t" + strconv.Itoa(t) }

// Event is one cycle-stamped runtime event. It is a fixed-size value
// struct: emitting one copies it into the tracer's ring and performs no
// heap allocation. A, B, C, D are kind-specific payload slots (see the
// Kind constants); encoders give them kind-specific JSON names.
type Event struct {
	// Cycle is the simulated cycle clock at emission.
	Cycle int64
	// Cost is the event's cycle cost (commit/rollback/compile).
	Cost int64
	// A..D are kind-specific integer payloads.
	A, B, C, D int64
	// Name carries the run label for KindMeta events only. It must be a
	// constant or pre-built string; emission never formats.
	Name string
	// Run distinguishes concurrent runs sharing one sink (the figure
	// harness); the tracer stamps it. Zero in single-run traces.
	Run int32
	// Region is the guest entry block of the region the event concerns,
	// or -1 for run-level events.
	Region int32
	// Kind classifies the event.
	Kind Kind
	// Cause qualifies rollbacks, tier moves, drops and chaos events.
	Cause Cause
	// Tier is the region's ladder rung at the event (the *from* rung for
	// tier moves); -1 when not applicable.
	Tier int8
	// To is the target rung of a tier move; -1 otherwise.
	To int8
}

// kindSpec drives the encoders: the event name plus the JSON names of the
// A..D payload slots ("" = slot unused for this kind).
type kindSpec struct {
	name           string
	aN, bN, cN, dN string
}

var kindSpecs = [numKinds]kindSpec{
	KindMeta:           {name: "meta"},
	KindCompile:        {name: "compile", aN: "ops", bN: "guest", cN: "mem", dN: "ws"},
	KindDispatch:       {name: "dispatch"},
	KindCommit:         {name: "commit", aN: "occupancy", bN: "stores"},
	KindRollback:       {name: "rollback", aN: "ops"},
	KindAliasException: {name: "alias-exception", aN: "checker", bN: "origin"},
	KindGuardFail:      {name: "guard-fail", aN: "streak"},
	KindDemote:         {name: "demote"},
	KindPromote:        {name: "promote"},
	KindEvict:          {name: "evict"},
	KindDrop:           {name: "drop"},
	KindChaos:          {name: "chaos", aN: "ord"},
	KindCompileEnqueue: {name: "compile-enqueue", aN: "depth", bN: "memo"},
	KindCompileCancel:  {name: "compile-cancel"},
	KindHostFault:      {name: "host-fault"},
	KindHealth:         {name: "health", aN: "from", bN: "to"},
	KindQuarantine:     {name: "quarantine"},
}

// String returns the event kind name.
func (k Kind) String() string {
	if int(k) < len(kindSpecs) {
		return kindSpecs[k].name
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// AppendJSON appends the canonical one-line JSON encoding of e to dst and
// returns the extended slice: the JSONL trace schema. Field order is fixed
// and unset optional fields are omitted, so identical event streams encode
// to identical bytes.
func AppendJSON(dst []byte, e *Event) []byte {
	spec := &kindSpecs[e.Kind]
	dst = append(dst, `{"cycle":`...)
	dst = strconv.AppendInt(dst, e.Cycle, 10)
	dst = append(dst, `,"ev":"`...)
	dst = append(dst, spec.name...)
	dst = append(dst, '"')
	if e.Run != 0 {
		dst = append(dst, `,"run":`...)
		dst = strconv.AppendInt(dst, int64(e.Run), 10)
	}
	if e.Region >= 0 {
		dst = append(dst, `,"region":`...)
		dst = strconv.AppendInt(dst, int64(e.Region), 10)
	}
	if e.Tier >= 0 {
		dst = append(dst, `,"tier":"`...)
		dst = append(dst, TierName(int(e.Tier))...)
		dst = append(dst, '"')
	}
	if e.To >= 0 {
		dst = append(dst, `,"to":"`...)
		dst = append(dst, TierName(int(e.To))...)
		dst = append(dst, '"')
	}
	if e.Cause != CauseNone {
		dst = append(dst, `,"cause":"`...)
		dst = append(dst, e.Cause.String()...)
		dst = append(dst, '"')
	}
	if e.Cost != 0 {
		dst = append(dst, `,"cost":`...)
		dst = strconv.AppendInt(dst, e.Cost, 10)
	}
	for _, f := range [...]struct {
		name string
		v    int64
	}{{spec.aN, e.A}, {spec.bN, e.B}, {spec.cN, e.C}, {spec.dN, e.D}} {
		if f.name == "" {
			continue
		}
		dst = append(dst, ',', '"')
		dst = append(dst, f.name...)
		dst = append(dst, '"', ':')
		dst = strconv.AppendInt(dst, f.v, 10)
	}
	if e.Name != "" {
		dst = append(dst, `,"name":`...)
		dst = strconv.AppendQuote(dst, e.Name)
	}
	return append(dst, '}')
}
