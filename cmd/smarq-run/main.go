// Command smarq-run executes one benchmark under one alias-hardware
// configuration and prints the run statistics.
//
// Usage:
//
//	smarq-run -bench ammp -config smarq64
//	smarq-run -bench mesa -config nostorereorder -regions
//	smarq-run -bench equake -chaos-seed 7 -check-invariants
//	smarq-run -bench swim -chaos-seed 7 -chaos-host -health
//	smarq-run -bench swim -trace swim.trace.json -trace-format chrome
//	smarq-run -bench swim -trace /dev/stderr
//	smarq-run -bench swim -metrics swim.metrics.json
//	smarq-run -list
//
// -trace streams cycle-stamped runtime events to a file (jsonl for
// diffable line-oriented output, chrome for a Perfetto-loadable
// timeline); -trace /dev/stderr watches the jsonl stream live. -metrics
// snapshots the aggregate counters and histograms to JSON after the run;
// -listen serves the observability endpoints (/metrics in Prometheus or
// JSON form, /healthz, /debug/cache, /debug/tenants, /debug/pprof) over
// HTTP for the duration of the run — useful for long chaos soaks.
// -chaos-host extends the chaos mix with host fault classes
// (compile-worker panics, hangs, poisoned results);
// -health arms the graceful-degradation controller. See DESIGN.md
// ("Telemetry"; "Host fault domains and the health controller").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"smarq/internal/dynopt"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/harness"
	"smarq/internal/health"
	"smarq/internal/obs"
	"smarq/internal/profiledump"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with a testable surface: parse args, execute, print to the
// given writers, and return the process exit code (0 ok, 1 runtime
// failure — including a rollback invariant violation — 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smarq-run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "swim", "benchmark name")
	file := fs.String("file", "", "run a guest assembly (.s) or binary (.bin) file instead of a benchmark")
	config := fs.String("config", "smarq64", "configuration: smarq<N>, alat, efficeon, nohw, nostorereorder")
	regions := fs.Bool("regions", false, "print per-region statistics")
	traceFile := fs.String("trace", "", "write a cycle-stamped event trace to this file")
	traceFormat := fs.String("trace-format", "jsonl", "trace encoding: jsonl or chrome (Perfetto-loadable)")
	metricsFile := fs.String("metrics", "", "write a JSON metrics snapshot (counters + histograms) to this file")
	listen := fs.String("listen", "", "serve the observability endpoints (/metrics, /healthz, /debug/*) at this address (e.g. :8080)")
	list := fs.Bool("list", false, "list benchmarks and exit")
	memSize := fs.Int("mem", 1<<20, "guest memory size for -file runs")
	maxInsts := fs.Uint64("maxinsts", 0, "instruction budget (0 = benchmark default; -file runs default to 100M)")
	chaosSeed := fs.Int64("chaos-seed", 0, "enable deterministic fault injection with this seed (default chaos mix)")
	aliasRate := fs.Float64("chaos-alias-rate", 0, "override the spurious-alias injection rate (with -chaos-seed)")
	guardRate := fs.Float64("chaos-guard-rate", 0, "override the guard-fail injection rate (with -chaos-seed)")
	compileRate := fs.Float64("chaos-compile-rate", 0, "override the compile-fail injection rate (with -chaos-seed)")
	corruptRate := fs.Float64("chaos-corrupt-rate", 0, "override the post-rollback corruption rate (with -chaos-seed)")
	chaosHost := fs.Bool("chaos-host", false, "extend the chaos mix with the default host fault rates (with -chaos-seed)")
	panicRate := fs.Float64("chaos-host-panic-rate", 0, "override the compile-worker panic rate (with -chaos-seed)")
	hangRate := fs.Float64("chaos-host-hang-rate", 0, "override the compile-hang (watchdog overrun) rate (with -chaos-seed and -compile-workers)")
	poisonRate := fs.Float64("chaos-host-poison-rate", 0, "override the poisoned-compile-result rate (with -chaos-seed)")
	healthOn := fs.Bool("health", false, "arm the graceful-degradation health controller (default tuning)")
	healthWindow := fs.Int("health-window", 0, "override the health controller's observation window (with -health)")
	healthDemote := fs.Int("health-demote", 0, "override the health controller's demotion score threshold (with -health)")
	healthPromote := fs.Int("health-promote", 0, "override the clean-run length one promotion requires (with -health)")
	checkInv := fs.Bool("check-invariants", false, "verify every rollback restores the exact checkpoint (slow)")
	compileWorkers := fs.Int("compile-workers", 0, "when compiles install (0 = at their request, the paper's model; N >= 1 = queued with a simulated latency, the same results at every N)")
	compileCPI := fs.Int("compile-cycles-per-inst", 0, "override the compile-latency model's cycles per guest instruction (with -compile-workers; default: the machine's)")
	compileCPC := fs.Int("compile-cycles-per-check", 0, "override the compile-latency model's cycles per guest memory op (with -compile-workers; default: the machine's)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, bm := range workload.Suite() {
			fmt.Fprintf(stdout, "%-10s %s\n", bm.Name, bm.Description)
		}
		return 0
	}

	var bm workload.Benchmark
	if *file != "" {
		prog, err := loadProgram(*file)
		if err != nil {
			fmt.Fprintln(stderr, "smarq-run:", err)
			return 1
		}
		bm = workload.Benchmark{
			Name:        *file,
			Description: "user program",
			MemSize:     *memSize,
			MaxInsts:    100_000_000,
			Build:       func() *guest.Program { return prog },
		}
	} else {
		var ok bool
		bm, ok = workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(stderr, "smarq-run: unknown benchmark %q (try -list)\n", *bench)
			return 2
		}
	}
	if *maxInsts != 0 {
		bm.MaxInsts = *maxInsts
	}
	cfg, err := harness.ParseConfig(*config)
	if err != nil {
		fmt.Fprintln(stderr, "smarq-run:", err)
		return 2
	}
	chaos := *chaosSeed != 0
	if chaos {
		if *chaosHost {
			cfg.Chaos = faultinject.DefaultHost(*chaosSeed)
		} else {
			cfg.Chaos = faultinject.Default(*chaosSeed)
		}
	}
	if *healthOn {
		cfg.Health = health.DefaultConfig()
	}
	// Apply exactly the tuning flags given on the command line, so
	// Validate sees every value set; a tuning flag whose feature is off
	// is a usage error, not a silent no-op. The latency model and the
	// compile hang exist only when compiles have a latency; the hang rate
	// is applied with the other chaos rates.
	tuning := []struct {
		on      bool
		feature string
		apply   map[string]func()
	}{
		{*compileWorkers >= 1, "-compile-workers", map[string]func(){
			"compile-cycles-per-inst":  func() { cfg.Machine.CompileCyclesPerInst = *compileCPI },
			"compile-cycles-per-check": func() { cfg.Machine.CompileCyclesPerCheck = *compileCPC },
			"chaos-host-hang-rate":     func() {},
		}},
		{chaos, "-chaos-seed", map[string]func(){
			"chaos-host":             func() {},
			"chaos-alias-rate":       func() { cfg.Chaos.SpuriousAliasRate = *aliasRate },
			"chaos-guard-rate":       func() { cfg.Chaos.GuardFailRate = *guardRate },
			"chaos-compile-rate":     func() { cfg.Chaos.CompileFailRate = *compileRate },
			"chaos-corrupt-rate":     func() { cfg.Chaos.CorruptRate = *corruptRate },
			"chaos-host-panic-rate":  func() { cfg.Chaos.WorkerPanicRate = *panicRate },
			"chaos-host-hang-rate":   func() { cfg.Chaos.CompileHangRate = *hangRate },
			"chaos-host-poison-rate": func() { cfg.Chaos.PoisonResultRate = *poisonRate },
		}},
		{*healthOn, "-health", map[string]func(){
			"health-window":  func() { cfg.Health.Window = *healthWindow },
			"health-demote":  func() { cfg.Health.DemoteThreshold = *healthDemote },
			"health-promote": func() { cfg.Health.PromoteAfter = *healthPromote },
		}},
	}
	var tuningErr error
	fs.Visit(func(f *flag.Flag) {
		for _, g := range tuning {
			if apply, ok := g.apply[f.Name]; ok && tuningErr == nil {
				if !g.on {
					tuningErr = fmt.Errorf("-%s needs %s", f.Name, g.feature)
					return
				}
				apply()
			}
		}
	})
	if tuningErr != nil {
		fmt.Fprintln(stderr, "smarq-run:", tuningErr)
		return 2
	}
	cfg.CheckInvariants = *checkInv
	cfg.Compile.Workers = *compileWorkers
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "smarq-run:", err)
		return 2
	}

	// Telemetry wiring: each enabled surface is independent; both off
	// leaves cfg.Telemetry nil and the whole layer a dead nil check.
	tel := &telemetry.Telemetry{}
	var tracer *telemetry.Tracer
	var traceOut *os.File
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(stderr, "smarq-run:", err)
			return 1
		}
		traceOut = f
		sink, err := telemetry.NewFormatSink(f, *traceFormat)
		if err != nil {
			fmt.Fprintln(stderr, "smarq-run:", err)
			return 2
		}
		tracer = telemetry.NewTracer(0, sink)
		tel.Events = tracer
	}
	if *metricsFile != "" || *listen != "" {
		tel.Metrics = telemetry.NewRegistry()
	}
	if tel.Events != nil || tel.Metrics != nil {
		cfg.Telemetry = tel
	}
	if *listen != "" {
		// The obs server binds synchronously (a bad address fails the run
		// here, not in a goroutine's log line) and is shut down after the
		// run so the process exits cleanly; ":0" binds an ephemeral port.
		server := obs.NewServer(obs.Options{
			Fleet: tel.Metrics,
			Tenants: func() []obs.TenantView {
				return []obs.TenantView{{ID: 0, Bench: bm.Name, Metrics: tel.Metrics}}
			},
		})
		if err := server.Start(*listen); err != nil {
			fmt.Fprintln(stderr, "smarq-run:", err)
			return 1
		}
		fmt.Fprintf(stderr, "smarq-run: serving observability endpoints on http://%s\n", server.Addr())
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = server.Shutdown(ctx)
		}()
	}

	stopCPU, err := profiledump.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintln(stderr, "smarq-run:", err)
		return 1
	}
	sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	halted, err := sys.Run(bm.MaxInsts)
	stopCPU()
	if cerr := tracer.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("trace: %w", cerr)
	}
	if traceOut != nil {
		if cerr := traceOut.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "smarq-run:", err)
		return 1
	}
	if *metricsFile != "" {
		f, err := os.Create(*metricsFile)
		if err == nil {
			err = tel.Metrics.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "smarq-run:", err)
			return 1
		}
	}
	if err := profiledump.WriteHeap(*memprofile); err != nil {
		fmt.Fprintln(stderr, "smarq-run:", err)
		return 1
	}
	st := &sys.Stats
	fmt.Fprintf(stdout, "%s under %s (halted=%v)\n", bm.Name, *config, halted)
	fmt.Fprintln(stdout, " ", harness.SummaryLine(st))
	fmt.Fprintf(stdout, "  guest insts: %d total, %d interpreted (%.1f%%)\n",
		st.GuestInsts, st.InterpretedInsts,
		100*float64(st.InterpretedInsts)/float64(st.GuestInsts))
	fmt.Fprintf(stdout, "  cycles/inst: %.3f\n", float64(st.TotalCycles)/float64(st.GuestInsts))
	fmt.Fprintln(stdout, "  recovery:", harness.RecoveryLine(st))
	if cs := st.Compile; cs.Enqueued > 0 {
		// LatencySum adds up every compile that reached its install
		// point, admitted or rejected; a watchdog kill never does.
		avg := int64(0)
		if n := cs.Installed + cs.Failed - cs.WatchdogKills; n > 0 {
			avg = cs.LatencySum / n
		}
		fmt.Fprintf(stdout, "  compile: %d enqueued, %d installed, %d canceled, %d failed, avg latency %d cycles, peak depth %d\n",
			cs.Enqueued, cs.Installed, cs.Canceled, cs.Failed, avg, cs.MaxQueueDepth)
	}
	if cs := st.Compile; cs.WorkerPanics+cs.WatchdogKills+cs.Rejected+cs.Quarantined > 0 {
		fmt.Fprintf(stdout, "  host faults: %d worker panics, %d watchdog kills, %d poisoned rejected, %d quarantined\n",
			cs.WorkerPanics, cs.WatchdogKills, cs.Rejected, cs.Quarantined)
	}
	if *healthOn {
		fmt.Fprintln(stdout, "  health:", harness.HealthLine(st))
	}
	if chaos {
		fmt.Fprintf(stdout, "  injected (seed %d): %s\n", *chaosSeed, harness.InjectedLine(st))
	}
	if *regions {
		fmt.Fprintln(stdout, "  regions:")
		for _, r := range st.Regions {
			fmt.Fprintf(stdout, "    B%-3d insts=%-3d mem=%-3d seq=%-3d cycles=%-4d P=%-3d C=%-3d checks=%-3d antis=%-2d amovs=%-2d ws=%d tier=%s dem=%d prom=%d sticky=%v\n",
				r.Entry, r.GuestInsts, r.MemOps, r.SeqLen, r.Cycles,
				r.Alloc.PBits, r.Alloc.CBits, r.Alloc.Checks, r.Alloc.Antis, r.Alloc.AMovs,
				r.Alloc.WorkingSet, r.Tier, r.Demotions, r.Promotions, r.Sticky)
		}
	}
	return 0
}

// loadProgram reads a guest program from assembly text (.s) or a binary
// image (anything else).
func loadProgram(path string) (*guest.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".s") || strings.HasSuffix(path, ".asm") {
		return guest.Assemble(string(data))
	}
	return guest.DecodeProgram(data)
}
