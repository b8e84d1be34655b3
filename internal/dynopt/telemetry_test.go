package dynopt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
)

// captureSink accumulates every event a tracer streams out (tests only).
type captureSink struct{ events []telemetry.Event }

func (s *captureSink) WriteEvents(evs []telemetry.Event) error {
	s.events = append(s.events, evs...)
	return nil
}
func (s *captureSink) Close() error { return nil }

// fanSink forwards one event stream to several sinks, so a single run can
// produce JSONL and Chrome encodings of identical events.
type fanSink struct{ sinks []telemetry.Sink }

func (s *fanSink) WriteEvents(evs []telemetry.Event) error {
	for _, sub := range s.sinks {
		if err := sub.WriteEvents(evs); err != nil {
			return err
		}
	}
	return nil
}

func (s *fanSink) Close() error {
	for _, sub := range s.sinks {
		if err := sub.Close(); err != nil {
			return err
		}
	}
	return nil
}

// TestTraceDeterminism: two identical runs (same program, config and
// chaos seed) must produce byte-identical JSONL traces, Chrome traces and
// metrics snapshots — the property that makes traces diffable across CI
// reruns and bisections.
func TestTraceDeterminism(t *testing.T) {
	runOnce := func() (jsonl, chrome, metrics []byte) {
		var jb, cb, mb bytes.Buffer
		cfg := ConfigSMARQ(16)
		cfg.Chaos = faultinject.Default(11)
		tel := &telemetry.Telemetry{
			Events:  telemetry.NewTracer(0, &fanSink{sinks: []telemetry.Sink{telemetry.NewJSONLSink(&jb), telemetry.NewChromeSink(&cb)}}),
			Metrics: telemetry.NewRegistry(),
		}
		cfg.Telemetry = tel
		sys := New(aliasingProgram(2500, 7), &guest.State{}, guest.NewMemory(1<<16), cfg)
		if halted, err := sys.Run(50_000_000); err != nil || !halted {
			t.Fatalf("halted=%v err=%v", halted, err)
		}
		if err := tel.Events.Close(); err != nil {
			t.Fatalf("close tracer: %v", err)
		}
		if err := tel.Metrics.WriteJSON(&mb); err != nil {
			t.Fatalf("write metrics: %v", err)
		}
		return jb.Bytes(), cb.Bytes(), mb.Bytes()
	}

	j1, c1, m1 := runOnce()
	j2, c2, m2 := runOnce()
	if len(j1) == 0 || !bytes.Contains(j1, []byte(`"ev":"rollback"`)) {
		t.Fatalf("trace looks inert: %d bytes, no rollbacks", len(j1))
	}
	if !bytes.Equal(j1, j2) {
		t.Errorf("JSONL traces differ across identical runs (%d vs %d bytes)", len(j1), len(j2))
	}
	if !bytes.Equal(c1, c2) {
		t.Errorf("Chrome traces differ across identical runs (%d vs %d bytes)", len(c1), len(c2))
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ across identical runs:\n%s\nvs\n%s", m1, m2)
	}
}

// TestTelemetryMatchesStats is the observability layer's consistency
// guarantee under chaos: every event in the trace must agree with the
// run's own Stats accounting — per-tier dispatches sum to the outcome
// totals, ladder moves match the recovery counters, compile-lifecycle and
// host-fault events match CompileStats, and residency is consistent at
// end of run. The registry's counters are a published view of Stats
// (TestMetricsPublishedFromStats); here only the two that are not a plain
// field are checked. Inline (Workers 0) and queued (Workers 1) runs
// register the same instruments, so their -metrics snapshots have the
// same key set.
func TestTelemetryMatchesStats(t *testing.T) {
	progs := map[string]func() *guest.Program{
		"sumloop":  func() *guest.Program { return sumLoopProgram(3000) },
		"aliasing": func() *guest.Program { return aliasingProgram(3000, 5) },
	}
	var aliasEvents int64 // across all cells: the alias-exception row must bite
	for name, build := range progs {
		for _, seed := range []int64{1, 2, 3} {
			var keySets [2][]string
			for _, workers := range []int{0, 1} {
				id := fmt.Sprintf("%s/seed%d/workers=%d", name, seed, workers)
				cfg := ConfigSMARQ(64)
				cfg.Compile.Workers = workers
				cfg.Chaos = faultinject.DefaultHost(seed)
				cfg.Health = smallHealthConfig()
				cfg.CheckInvariants = true
				sink := &captureSink{}
				reg := telemetry.NewRegistry()
				cfg.Telemetry = &telemetry.Telemetry{Events: telemetry.NewTracer(0, sink), Metrics: reg}
				useStore(t, outputStoreBytes) // each cell compiles, on the pool when queued
				sys := New(build(), &guest.State{}, guest.NewMemory(1<<16), cfg)
				if halted, err := sys.Run(50_000_000); err != nil || !halted {
					t.Fatalf("%s: halted=%v err=%v", id, halted, err)
				}
				if err := cfg.Telemetry.Events.Flush(); err != nil {
					t.Fatalf("%s: flush: %v", id, err)
				}
				st := &sys.Stats
				keySets[workers] = metricKeys(t, reg)

				// Tally the event stream.
				var byKind [32]int64
				var demoteRungs, promotes, runtimeChaos int64
				for _, e := range sink.events {
					byKind[e.Kind]++
					switch e.Kind {
					case telemetry.KindDemote:
						demoteRungs += int64(e.To - e.Tier)
					case telemetry.KindPromote:
						promotes++
					case telemetry.KindChaos:
						// Host-fault draws that another draw dominates emit
						// no event, so only the runtime classes tally exactly.
						switch e.Cause {
						case telemetry.CauseWatchdog, telemetry.CauseWorkerPanic,
							telemetry.CausePoison:
						default:
							runtimeChaos++
						}
					}
				}

				// Per-tier dispatches sum to the outcome totals: every
				// compiled dispatch ends in exactly one of the four outcomes,
				// and pinned "dispatches" are interpreted entries.
				var compiledDispatches int64
				for tier := TierFull; tier < TierPinned; tier++ {
					compiledDispatches += st.Recovery.TierDispatches[tier]
				}
				outcomes := st.Commits + st.AliasExceptions + st.GuardFails + st.Faults
				if compiledDispatches != outcomes {
					t.Errorf("%s: compiled dispatches %d != outcome total %d",
						id, compiledDispatches, outcomes)
				}

				// Trace events agree with Stats.
				checks := []struct {
					what string
					got  int64
					want int64
				}{
					{"dispatch events", byKind[telemetry.KindDispatch], compiledDispatches},
					{"commit events", byKind[telemetry.KindCommit], st.Commits},
					{"rollback events", byKind[telemetry.KindRollback], st.AliasExceptions + st.GuardFails + st.Faults},
					// Injected alias exceptions carry no conflicting pair,
					// so only real ones name their checker and origin.
					{"alias-exception events", byKind[telemetry.KindAliasException], st.AliasExceptions - st.Injected.SpuriousAliases},
					{"guard-fail events", byKind[telemetry.KindGuardFail], st.GuardFails},
					{"promote events", promotes, st.Recovery.Promotions},
					{"demoted rungs", demoteRungs, st.Recovery.Demotions},
					{"evict events", byKind[telemetry.KindEvict], st.Recovery.Evictions},
					{"runtime chaos events", runtimeChaos,
						st.Injected.SpuriousAliases + st.Injected.GuardFails + st.Injected.CompileFails + st.Injected.Corruptions},
					{"host-fault events", byKind[telemetry.KindHostFault],
						st.Compile.WorkerPanics + st.Compile.WatchdogKills + st.Compile.Rejected},
					{"quarantine events", byKind[telemetry.KindQuarantine], st.Compile.Quarantined},
					{"compile-cancel events", byKind[telemetry.KindCompileCancel], st.Compile.Canceled},
					{"compile events", byKind[telemetry.KindCompile], int64(st.RegionsCompiled + st.Recompiles)},
					{"drop events", byKind[telemetry.KindDrop], int64(st.RegionsDropped)},
					{"health events", byKind[telemetry.KindHealth], st.Health.Demotions + st.Health.Promotions},
				}
				// Only queued compiles emit the compile-enqueue event; an
				// inline compile installs inside its request.
				if enq, queued := byKind[telemetry.KindCompileEnqueue], workers > 0; (queued && enq != st.Compile.Enqueued) || (!queued && enq != 0) {
					t.Errorf("%s: %d compile-enqueue events, %d enqueued", id, enq, st.Compile.Enqueued)
				}
				if st.Compile.Enqueued == 0 {
					t.Errorf("%s: nothing compiled — the compile events went unchecked", id)
				}
				aliasEvents += byKind[telemetry.KindAliasException]
				for _, c := range checks {
					if c.got != c.want {
						t.Errorf("%s: %s = %d, Stats say %d", id, c.what, c.got, c.want)
					}
				}

				// The two counters that are not a plain Stats field: every
				// chaos draw that fired, including host draws another draw
				// dominated (those emit no event), and the pinned rung's
				// interpreted entries.
				in := &st.Injected
				if got, want := reg.Counter("dynopt_chaos_injected").Value(),
					in.SpuriousAliases+in.GuardFails+in.CompileFails+in.Corruptions+
						in.WorkerPanics+in.CompileHangs+in.PoisonedResults; got != want {
					t.Errorf("%s: dynopt_chaos_injected = %d, Stats.Injected sums to %d", id, got, want)
				}
				pinKey := telemetry.Labeled(mTierFamily,
					telemetry.Label{Name: "tier", Value: TierPinned.String()})
				if got := reg.Counter(pinKey).Value(); got != st.Recovery.TierDispatches[TierPinned] {
					t.Errorf("%s: %s = %d, Stats say %d",
						id, pinKey, got, st.Recovery.TierDispatches[TierPinned])
				}

				// End-of-run residency is internally consistent.
				rec := &st.Recovery
				if rec.PinnedRegions != rec.TierRegions[TierPinned] {
					t.Errorf("%s: PinnedRegions %d != TierRegions[pinned] %d",
						id, rec.PinnedRegions, rec.TierRegions[TierPinned])
				}
				var perRegionDem, perRegionProm int64
				for _, rs := range st.Regions {
					perRegionDem += int64(rs.Demotions)
					perRegionProm += int64(rs.Promotions)
				}
				if perRegionDem != rec.Demotions {
					t.Errorf("%s: per-region demotions %d != Recovery.Demotions %d",
						id, perRegionDem, rec.Demotions)
				}
				if perRegionProm != rec.Promotions {
					t.Errorf("%s: per-region promotions %d != Recovery.Promotions %d",
						id, perRegionProm, rec.Promotions)
				}
			}
			if !slices.Equal(keySets[0], keySets[1]) {
				t.Errorf("%s/seed%d: -metrics key sets differ between inline and queued compiles:\n inline: %v\n queued: %v",
					name, seed, keySets[0], keySets[1])
			}
		}
	}
	if aliasEvents == 0 {
		t.Error("no cell raised a real alias exception — the alias-exception events went unchecked")
	}
}

// metricKeys lists every instrument in a registry's -metrics snapshot.
func metricKeys(t *testing.T, reg *telemetry.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for section, instruments := range snap {
		for k := range instruments {
			keys = append(keys, section+"/"+k)
		}
	}
	slices.Sort(keys)
	return keys
}

// TestDecisionPathsZeroAllocs pins two runtime decisions off the dispatch
// path — cancelling a pending compile, and evicting a region for code
// cache capacity — at zero heap allocations, with telemetry disabled
// (the nil check is the whole cost) and enabled (the event is the one
// record of the decision, and nothing formats it).
func TestDecisionPathsZeroAllocs(t *testing.T) {
	cases := map[string]*telemetry.Telemetry{
		"telemetry-off": nil,
		"telemetry-on": {
			Events:  telemetry.NewTracer(0, nil),
			Metrics: telemetry.NewRegistry(),
		},
	}
	for name, tel := range cases {
		t.Run(name+"/cancel", func(t *testing.T) {
			sys, entry, _ := warmCommitSystem(t, tel)
			cq, p := &sys.cq, &pendingCompile{entry: entry}
			before := sys.Stats.Compile.Canceled
			allocs := testing.AllocsPerRun(200, func() {
				sys.disp[entry].rec.pending = p
				cq.queue = append(cq.queue, p)
				sys.cancelPending(entry, telemetry.CauseStale)
			})
			if allocs != 0 {
				t.Errorf("cancelPending allocates %v times per cancel, want 0", allocs)
			}
			if sys.Stats.Compile.Canceled <= before || sys.disp[entry].rec.pending != nil || len(cq.queue) != 0 {
				t.Fatalf("pending compile not cancelled: canceled %d→%d, pending %v, %d queued",
					before, sys.Stats.Compile.Canceled, sys.disp[entry].rec.pending != nil, len(cq.queue))
			}
		})
		t.Run(name+"/evict", func(t *testing.T) {
			sys, entry, c := warmCommitSystem(t, tel)
			sys.cfg.CodeCacheCapacity = 1
			victim := (entry + 1) % len(sys.disp)
			before := sys.Stats.Recovery.Evictions
			allocs := testing.AllocsPerRun(200, func() {
				sys.setCode(victim, c)
				sys.evictForCapacity(entry)
			})
			if allocs != 0 {
				t.Errorf("evictForCapacity allocates %v times per eviction, want 0", allocs)
			}
			if sys.Stats.Recovery.Evictions <= before || sys.installed != 1 || sys.disp[victim].code != nil {
				t.Fatalf("victim not evicted: evictions %d→%d, %d installed",
					before, sys.Stats.Recovery.Evictions, sys.installed)
			}
		})
	}
}

// commitLoopProgram is a single hot loop with loads and stores and no
// setup loop, so the system's code cache ends up with exactly one region
// and a budget-stopped run parks the guest at its entry.
func commitLoopProgram(n int64) *guest.Program {
	b := guest.NewBuilder()
	b.NewBlock()
	b.Li(1, 1024)
	b.Li(2, 8192)
	b.Li(3, 0)
	b.Li(4, n)
	b.Li(5, 0)
	loop := b.NewBlock()
	b.Muli(6, 3, 8)
	b.Add(7, 1, 6)
	b.Ld8(8, 7, 0)
	b.Add(5, 5, 8)
	b.Add(9, 2, 6)
	b.St8(9, 0, 5)
	b.Addi(3, 3, 1)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// warmCommitSystem builds a system over commitLoopProgram, runs it far
// enough to compile and warm the loop region, and returns the system with
// its single cached region — parked at the loop entry, with enough
// iterations left that every subsequent dispatch commits — and with an
// executor scratch borrowed until the test ends.
func warmCommitSystem(t *testing.T, tel *telemetry.Telemetry) (*System, int, *compiled) {
	t.Helper()
	cfg := ConfigSMARQ(64)
	cfg.Telemetry = tel
	sys := New(commitLoopProgram(1_000_000), &guest.State{}, guest.NewMemory(1<<16), cfg)
	if halted, err := sys.Run(10_000); err != nil || halted {
		t.Fatalf("warm-up: halted=%v err=%v", halted, err)
	}
	if sys.installed != 1 {
		t.Fatalf("cache holds %d regions, want 1", sys.installed)
	}
	lendExec(t, sys)
	for entry := range sys.disp {
		c := sys.disp[entry].code
		if c == nil {
			continue
		}
		if next := sys.runRegion(entry, c); next != entry {
			t.Fatalf("warm dispatch left the loop: next=%d, want %d", next, entry)
		}
		return sys, entry, c
	}
	panic("unreachable")
}

// TestRunRegionZeroAllocs pins the full runtime dispatch path — recovery
// bookkeeping, execution, commit, stats — at zero heap allocations per
// region entry, both with telemetry disabled (the nil-check path) and
// with a flight-recorder tracer plus metrics registry enabled (ring copy
// plus atomic adds, no encoding).
func TestRunRegionZeroAllocs(t *testing.T) {
	cases := map[string]*telemetry.Telemetry{
		"telemetry-off": nil,
		"telemetry-on": {
			Events:  telemetry.NewTracer(0, nil), // flight recorder: no sink, no drain
			Metrics: telemetry.NewRegistry(),
		},
	}
	for name, tel := range cases {
		t.Run(name, func(t *testing.T) {
			sys, entry, c := warmCommitSystem(t, tel)
			before := sys.Stats.Commits
			allocs := testing.AllocsPerRun(200, func() {
				if next := sys.runRegion(entry, c); next != entry {
					t.Fatalf("dispatch left the loop: next=%d", next)
				}
			})
			if allocs != 0 {
				t.Errorf("runRegion allocates %v times per entry, want 0", allocs)
			}
			if sys.Stats.Commits <= before {
				t.Fatal("pinned loop did not commit")
			}
		})

		// Same pin with the fresh flag re-armed every entry, so the
		// install-to-dispatch lag observation runs on each iteration —
		// the histogram path must stay allocation-free too.
		t.Run(name+"/fresh", func(t *testing.T) {
			sys, entry, c := warmCommitSystem(t, tel)
			allocs := testing.AllocsPerRun(200, func() {
				c.fresh = true
				if next := sys.runRegion(entry, c); next != entry {
					t.Fatalf("dispatch left the loop: next=%d", next)
				}
			})
			if allocs != 0 {
				t.Errorf("runRegion (fresh install) allocates %v times per entry, want 0", allocs)
			}
			if tel != nil {
				if n := tel.Metrics.Histogram(hInstallLag, nil).Count(); n == 0 {
					t.Error("install-lag histogram never observed")
				}
			}
		})
	}
}
