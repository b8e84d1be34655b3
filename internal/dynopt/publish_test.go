package dynopt

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"slices"
	"sync"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
)

// entryLoopProgram is a loop whose body is the program's entry block and
// whose state starts at zero, so a Run that stops on the budget — always at
// the loop head — resumes exactly where it stopped: the next Run restarts
// at the entry, which is the loop head.
func entryLoopProgram(n int64) *guest.Program {
	b := guest.NewBuilder()
	loop := b.NewBlock()
	b.Li(1, 1024)
	b.Muli(6, 3, 8)
	b.Add(7, 1, 6)
	b.Ld8(8, 7, 0)
	b.Add(5, 5, 8)
	b.St8(7, 8, 5)
	b.Addi(3, 3, 1)
	b.Li(4, n)
	b.Blt(3, 4, loop)
	b.NewBlock()
	b.Halt()
	return b.MustProgram()
}

// counterSnapshot reads a registry's counters section.
func counterSnapshot(t *testing.T, reg *telemetry.Registry) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]int64 }
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

// wantCounters is the statCounters table read over the given Stats, summed.
func wantCounters(stats ...*Stats) map[string]int64 {
	want := make(map[string]int64, len(statCounters))
	for _, sc := range statCounters {
		for _, st := range stats {
			want[sc.name] += sc.read(st)
		}
	}
	return want
}

// TestMetricsPublishedFromStats: the registry's counters are a published
// view of Stats. Two Systems sharing one registry sum correctly, a
// budget-split run publishes the same snapshot as an uninterrupted one,
// and publishing allocates nothing.
func TestMetricsPublishedFromStats(t *testing.T) {
	t.Run("shared-registry", func(t *testing.T) {
		reg := telemetry.NewRegistry()
		progs := []*guest.Program{sumLoopProgram(3000), aliasingProgram(3000, 5)}
		systems := make([]*System, len(progs))
		for i, prog := range progs {
			cfg := ConfigSMARQ(64)
			cfg.Compile.Workers = 1
			cfg.Chaos = faultinject.DefaultHost(int64(i + 1))
			cfg.Health = smallHealthConfig()
			cfg.Telemetry = &telemetry.Telemetry{Metrics: reg}
			systems[i] = New(prog, &guest.State{}, guest.NewMemory(1<<16), cfg)
		}
		var wg sync.WaitGroup
		errs := make([]error, len(systems))
		for i, sys := range systems {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[i] = sys.Run(50_000_000)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("system %d: %v", i, err)
			}
		}
		got := counterSnapshot(t, reg)
		want := wantCounters(&systems[0].Stats, &systems[1].Stats)
		if !maps.Equal(got, want) {
			t.Errorf("shared registry counters differ from the table over both Stats:\n got: %v\nwant: %v", got, want)
		}
		nonzero := 0
		for _, v := range want {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero < len(want)/2 {
			t.Errorf("only %d of %d counters are nonzero: the run exercises too little", nonzero, len(want))
		}
	})

	t.Run("budget-split", func(t *testing.T) {
		run := func(budgets ...uint64) (*System, []byte) {
			reg := telemetry.NewRegistry()
			cfg := ConfigSMARQ(16)
			cfg.Chaos = faultinject.Default(3)
			cfg.Telemetry = &telemetry.Telemetry{Metrics: reg}
			sys := New(entryLoopProgram(20_000), &guest.State{}, guest.NewMemory(1<<20), cfg)
			for _, b := range budgets {
				if _, err := sys.Run(b); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := reg.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			return sys, buf.Bytes()
		}
		whole, one := run(50_000_000)
		split, two := run(10_000, 50_000_000)
		if whole.Stats.GuestInsts <= 10_000 || whole.Stats.Commits == 0 || whole.Stats.AliasExceptions == 0 {
			t.Fatalf("the run does not outlast the split point with compiled code and rollbacks: %+v", whole.Stats)
		}
		if split.Stats.GuestInsts != whole.Stats.GuestInsts || split.Stats.TotalCycles != whole.Stats.TotalCycles {
			t.Fatalf("the split run is not the same run: %d insts / %d cycles vs %d / %d",
				split.Stats.GuestInsts, split.Stats.TotalCycles, whole.Stats.GuestInsts, whole.Stats.TotalCycles)
		}
		if !bytes.Equal(one, two) {
			t.Errorf("budget-split snapshot differs from the uninterrupted one:\n%s\nvs\n%s", two, one)
		}
	})

	t.Run("allocs", func(t *testing.T) {
		cfg := ConfigSMARQ(64)
		cfg.Chaos = faultinject.DefaultHost(1)
		cfg.Health = smallHealthConfig()
		cfg.Telemetry = &telemetry.Telemetry{Metrics: telemetry.NewRegistry()}
		sys := New(sumLoopProgram(3000), &guest.State{}, guest.NewMemory(1<<16), cfg)
		if _, err := sys.Run(50_000_000); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			sys.Stats.Commits++ // give every publish a delta to add
			sys.publish()
		})
		if allocs != 0 {
			t.Errorf("publish allocates %v times per call, want 0", allocs)
		}
	})
}

// dispatchProbe is a tracer sink that, at every ring drain, compares the
// published dispatch counter with the dispatch events drained so far. It
// runs on the simulation thread, so the comparison races nothing.
type dispatchProbe struct {
	counter        *telemetry.Counter
	dispatched     int64 // dispatch events drained so far
	drains         int
	minLag, maxLag int64
	lastLag        int64
}

func (p *dispatchProbe) WriteEvents(evs []telemetry.Event) error {
	for _, e := range evs {
		if e.Kind == telemetry.KindDispatch {
			p.dispatched++
		}
	}
	p.lastLag = p.dispatched - p.counter.Value()
	p.minLag = min(p.minLag, p.lastLag)
	p.maxLag = max(p.maxLag, p.lastLag)
	p.drains++
	return nil
}

func (p *dispatchProbe) Close() error { return nil }

// TestMetricsFreshness: mid-run, the published dispatch counter trails the
// dispatch events by at most publishPeriod and never leads them; after Run
// returns it is exact.
func TestMetricsFreshness(t *testing.T) {
	reg := telemetry.NewRegistry()
	probe := &dispatchProbe{}
	tr := telemetry.NewTracer(64, probe)
	cfg := ConfigSMARQ(64)
	cfg.Telemetry = &telemetry.Telemetry{Events: tr, Metrics: reg}
	sys := New(commitLoopProgram(100_000), &guest.State{}, guest.NewMemory(1<<20), cfg)
	probe.counter = reg.Counter("dynopt_dispatches")
	if halted, err := sys.Run(50_000_000); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if probe.minLag < 0 || probe.maxLag > publishPeriod {
		t.Errorf("live dispatch counter lag in [%d, %d], want within [0, %d]",
			probe.minLag, probe.maxLag, publishPeriod)
	}
	if probe.dispatched < 4*publishPeriod || probe.drains < 100 {
		t.Fatalf("%d dispatches over %d drains: too few to test freshness", probe.dispatched, probe.drains)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got, want := probe.counter.Value(), wantCounters(&sys.Stats)["dynopt_dispatches"]; probe.lastLag != 0 || got != want {
		t.Errorf("after Run: counter %d lags the events by %d, Stats give %d", got, probe.lastLag, want)
	}
}

// TestMetricsScrapeRace scrapes a running System's registry from another
// goroutine, the way a live /metrics endpoint does: no counter may ever
// decrease, and the final snapshot is the table over Stats. Run it under
// -race.
func TestMetricsScrapeRace(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = 2
	cfg.Chaos = faultinject.DefaultHost(2)
	cfg.Telemetry = &telemetry.Telemetry{Metrics: reg}
	sys := New(commitLoopProgram(200_000), &guest.State{}, guest.NewMemory(1<<21), cfg)

	done := make(chan struct{})
	scraped := make(chan []string)
	go func() {
		var problems []string
		prev := map[string]int64{}
		for {
			var buf bytes.Buffer
			if err := reg.WriteJSON(&buf); err != nil {
				problems = append(problems, err.Error())
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				problems = append(problems, err.Error())
			}
			var snap struct{ Counters map[string]int64 }
			if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
				problems = append(problems, err.Error())
			}
			for k, v := range snap.Counters {
				if v < prev[k] {
					problems = append(problems, k+" decreased")
				}
				prev[k] = v
			}
			select {
			case <-done:
				scraped <- problems
				return
			default:
			}
		}
	}()
	_, err := sys.Run(50_000_000)
	close(done)
	problems := <-scraped
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(problems)
	for _, p := range slices.Compact(problems) {
		t.Error(p)
	}
	if got, want := counterSnapshot(t, reg), wantCounters(&sys.Stats); !maps.Equal(got, want) {
		t.Errorf("final counters differ from the table over Stats:\n got: %v\nwant: %v", got, want)
	}
}
