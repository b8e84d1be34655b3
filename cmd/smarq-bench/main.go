// Command smarq-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	smarq-bench                       # everything
//	smarq-bench -only fig15           # one artifact: table1 table2 fig14..fig19 scaling
//	smarq-bench -only table1,fig15    # an artifact subset
//	smarq-bench -bench ammp           # restrict the suite
//	smarq-bench -parallel 8           # bound the worker pool (0 = GOMAXPROCS)
//	smarq-bench -v                    # per-run summaries
//	smarq-bench -trace all.trace.json -trace-format chrome
//	smarq-bench -metrics all.metrics.json
//	smarq-bench -tenants 8 -tenant-mix swim,equake -compile-workers 1
//	smarq-bench -tenants 4 -fleet-verify    # diff every tenant vs its solo run
//
// Benchmark×configuration cells fan out over a bounded worker pool; the
// artifacts themselves are rendered in a fixed order from the shared
// result cache, so stdout is byte-identical at every parallelism level.
//
// -trace streams every cell's cycle-stamped events into one file: each
// cell gets its own run ID (the trace "process", labelled bench/config),
// so a Perfetto view shows all runs side by side. Batches from concurrent
// cells interleave in completion order — pass -parallel 1 when the trace
// bytes themselves must be deterministic. -metrics aggregates one shared
// registry across all cells.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"smarq/internal/dynopt"
	"smarq/internal/harness"
	"smarq/internal/health"
	"smarq/internal/profiledump"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

func main() {
	only := flag.String("only", "", "comma-separated artifact subset (table1, table2, fig14, fig15, fig16, fig17, fig18, fig19, scaling, ablations, unroll, efficeon, breakdown, energy)")
	benches := flag.String("bench", "", "comma-separated benchmark subset (default: full suite)")
	verbose := flag.Bool("v", false, "print a summary line per completed run")
	asJSON := flag.Bool("json", false, "emit all results as one JSON document")
	scale := flag.Int64("scale", 1, "multiply every benchmark's main loop count (longer runs amortize translation cost)")
	parallel := flag.Int("parallel", 0, "max concurrent benchmark runs (0 = GOMAXPROCS)")
	compileWorkers := flag.Int("compile-workers", 0, "when compiles install (0 = at their request, the paper's model; N >= 1 = queued with a simulated latency, the same results at every N)")
	healthOn := flag.Bool("health", false, "arm the graceful-degradation health controller in every run (default tuning)")
	traceFile := flag.String("trace", "", "write a cycle-stamped event trace of every run to this file")
	traceFormat := flag.String("trace-format", "jsonl", "trace encoding: jsonl or chrome (Perfetto-loadable)")
	metricsFile := flag.String("metrics", "", "write a JSON metrics snapshot aggregated across all runs")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the harness run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	tenants := flag.Int("tenants", 0, "fleet mode: run N concurrent tenant Systems over one shared code cache (0 = classic artifact mode)")
	tenantMix := flag.String("tenant-mix", "swim", "fleet mode: comma-separated benchmarks assigned to tenants round-robin")
	fleetConfig := flag.String("fleet-config", "smarq64", "fleet mode: dynopt configuration every tenant runs under")
	fleetVerify := flag.Bool("fleet-verify", false, "fleet mode: diff every tenant's results against its solo run; exit nonzero on divergence")
	cacheEntries := flag.Int64("cache-entries", 0, "fleet mode: shared code cache entry budget (0 = unbounded)")
	cacheBytes := flag.Int64("cache-bytes", 0, "fleet mode: shared code cache byte budget (0 = unbounded)")
	listen := flag.String("listen", "", "fleet mode: serve the observability endpoints (/metrics, /healthz, /debug/*) at this address during the run")
	flag.Parse()
	if *compileWorkers < 0 {
		fmt.Fprintf(os.Stderr, "smarq-bench: -compile-workers %d, want >= 0\n", *compileWorkers)
		os.Exit(2)
	}

	stopCPU, err := profiledump.StartCPU(*cpuprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smarq-bench:", err)
		os.Exit(1)
	}

	if *tenants > 0 {
		runFleetMode(fleetOpts{
			config: harness.FleetConfig{
				Tenants:         *tenants,
				Mix:             splitList(*tenantMix),
				Config:          *fleetConfig,
				CompileWorkers:  *compileWorkers,
				CacheMaxEntries: *cacheEntries,
				CacheMaxBytes:   *cacheBytes,
				Scale:           *scale,
			},
			verify:      *fleetVerify,
			asJSON:      *asJSON,
			metricsFile: *metricsFile,
			traceFile:   *traceFile,
			traceFormat: *traceFormat,
			listen:      *listen,
		})
		stopCPU()
		if err := profiledump.WriteHeap(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench:", err)
			os.Exit(1)
		}
		return
	}

	selected := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			selected[strings.TrimSpace(name)] = true
		}
	}

	suite := workload.SuiteScaled(*scale)
	if *benches != "" {
		suite = suite[:0]
		for _, name := range strings.Split(*benches, ",") {
			bm, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "smarq-bench: unknown benchmark %q\n", name)
				os.Exit(2)
			}
			suite = append(suite, bm)
		}
	}

	r := harness.NewRunner(suite)
	r.Parallelism = *parallel
	if *compileWorkers > 0 || *healthOn {
		r.ConfigHook = func(cfg dynopt.Config) dynopt.Config {
			cfg.Compile.Workers = *compileWorkers
			if *healthOn {
				cfg.Health = health.DefaultConfig()
			}
			return cfg
		}
	}
	if *verbose {
		r.Verbose = telemetry.NewLineSink(os.Stderr)
	}

	// Shared telemetry across all cells: one sink (serialized), one
	// registry; each cell's tracer gets a distinct run ID and a meta
	// event naming it bench/config.
	var traceSink *telemetry.SyncSink
	var traceOut *os.File
	var registry *telemetry.Registry
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench:", err)
			os.Exit(1)
		}
		traceOut = f
		sink, err := telemetry.NewFormatSink(f, *traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench:", err)
			os.Exit(2)
		}
		traceSink = telemetry.NewSyncSink(sink)
	}
	if *metricsFile != "" {
		registry = telemetry.NewRegistry()
	}
	if traceSink != nil || registry != nil {
		var runID atomic.Int32
		r.Telemetry = func(bench, config string) *telemetry.Telemetry {
			tel := &telemetry.Telemetry{Metrics: registry}
			if traceSink != nil {
				tr := telemetry.NewTracer(0, traceSink)
				tr.Run = runID.Add(1)
				tr.Emit(telemetry.Event{
					Kind: telemetry.KindMeta, Region: -1, Tier: -1, To: -1,
					Name: bench + "/" + config,
				})
				tel.Events = tr
			}
			return tel
		}
	}

	start := time.Now()
	artifacts := 0
	results := map[string]interface{}{}
	emit := func(name string, render func() (string, error)) {
		if len(selected) > 0 && !selected[name] {
			return
		}
		out, err := render()
		if err != nil {
			fmt.Fprintf(os.Stderr, "smarq-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		artifacts++
		if !*asJSON {
			fmt.Println(out)
		}
	}
	collect := func(name string, data interface{}) {
		if *asJSON {
			results[name] = data
		}
	}
	_ = collect

	emit("table1", func() (string, error) {
		d, err := harness.Table1()
		if err != nil {
			return "", err
		}
		collect("table1", d)
		return d.Render(), nil
	})
	emit("table2", func() (string, error) {
		d := harness.Table2()
		collect("table2", d)
		return d.Render(), nil
	})
	emit("fig14", func() (string, error) {
		d, err := r.Figure14()
		if err != nil {
			return "", err
		}
		collect("fig14", d)
		return d.Render(), nil
	})
	emit("fig15", func() (string, error) {
		d, err := r.Figure15()
		if err != nil {
			return "", err
		}
		collect("fig15", d)
		return d.Render(), nil
	})
	emit("fig16", func() (string, error) {
		d, err := r.Figure16()
		if err != nil {
			return "", err
		}
		collect("fig16", d)
		return d.Render(), nil
	})
	emit("fig17", func() (string, error) {
		d, err := r.Figure17()
		if err != nil {
			return "", err
		}
		collect("fig17", d)
		return d.Render(), nil
	})
	emit("fig18", func() (string, error) {
		d, err := r.Figure18()
		if err != nil {
			return "", err
		}
		collect("fig18", d)
		return d.Render(), nil
	})
	emit("fig19", func() (string, error) {
		d, err := r.Figure19()
		if err != nil {
			return "", err
		}
		collect("fig19", d)
		return d.Render(), nil
	})
	emit("scaling", func() (string, error) {
		d, err := r.ScalingSweep(nil)
		if err != nil {
			return "", err
		}
		collect("scaling", d)
		return d.Render(), nil
	})
	emit("ablations", func() (string, error) {
		d, err := r.Ablations()
		if err != nil {
			return "", err
		}
		collect("ablations", d)
		return d.Render(), nil
	})
	emit("unroll", func() (string, error) {
		d, err := r.UnrollSweep(nil)
		if err != nil {
			return "", err
		}
		collect("unroll", d)
		return d.Render(), nil
	})
	emit("efficeon", func() (string, error) {
		d, err := r.Efficeon()
		if err != nil {
			return "", err
		}
		collect("efficeon", d)
		return d.Render(), nil
	})

	emit("breakdown", func() (string, error) {
		d, err := r.Breakdown()
		if err != nil {
			return "", err
		}
		collect("breakdown", d)
		return d.Render(), nil
	})
	emit("energy", func() (string, error) {
		d, err := r.Energy()
		if err != nil {
			return "", err
		}
		collect("energy", d)
		return d.Render(), nil
	})

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench:", err)
			os.Exit(1)
		}
	}

	stopCPU()
	if err := profiledump.WriteHeap(*memprofile); err != nil {
		fmt.Fprintln(os.Stderr, "smarq-bench:", err)
		os.Exit(1)
	}

	if traceSink != nil {
		// Per-cell tracers only Flush (the runner does it as each run
		// completes); the shared sink is closed exactly once here.
		err := traceSink.Close()
		if cerr := traceOut.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench: trace:", err)
			os.Exit(1)
		}
	}
	if registry != nil {
		f, err := os.Create(*metricsFile)
		if err == nil {
			err = registry.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench:", err)
			os.Exit(1)
		}
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Fprintf(os.Stderr, "# smarq-bench: %d artifact(s) in %s (parallelism=%d)\n",
		artifacts, time.Since(start).Round(time.Millisecond), workers)
}

// splitList splits a comma-separated flag value, trimming whitespace.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// fleetOpts bundles the fleet-mode CLI surface.
type fleetOpts struct {
	config      harness.FleetConfig
	verify      bool
	asJSON      bool
	metricsFile string
	traceFile   string
	traceFormat string
	listen      string
}

// tenantTracePath derives one tenant's trace file name from the -trace
// base path: base.trace.json + tenant 2 running equake becomes
// base.trace.tenant2-equake.json.
func tenantTracePath(base string, tenant int, bench string) string {
	ext := filepath.Ext(base)
	return fmt.Sprintf("%s.tenant%d-%s%s", strings.TrimSuffix(base, ext), tenant, bench, ext)
}

// runFleetMode is the -tenants path: one concurrent multi-tenant run over
// the shared code cache, reported as a text table (or JSON), optionally
// followed by the per-tenant solo-determinism diff.
// -trace writes one JSONL/Chrome file per tenant (the fleet determinism
// contract makes each byte-identical to the tenant's solo trace), and
// -listen serves the live observability endpoints for the run's duration.
func runFleetMode(o fleetOpts) {
	var registry *telemetry.Registry
	if o.metricsFile != "" {
		registry = telemetry.NewRegistry()
		o.config.Metrics = registry
	}
	o.config.Listen = o.listen
	if o.listen != "" {
		o.config.ObsReady = func(addr string) {
			fmt.Fprintf(os.Stderr, "# smarq-bench: serving observability endpoints on http://%s\n", addr)
		}
	}
	var traceCloses []func() error
	if o.traceFile != "" {
		// The harness calls the Telemetry hook sequentially before any
		// tenant starts, so file creation order is deterministic.
		o.config.Telemetry = func(tenant int, bench string) *telemetry.Telemetry {
			path := tenantTracePath(o.traceFile, tenant, bench)
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "smarq-bench:", err)
				os.Exit(1)
			}
			sink, err := telemetry.NewFormatSink(f, o.traceFormat)
			if err != nil {
				fmt.Fprintln(os.Stderr, "smarq-bench:", err)
				os.Exit(2)
			}
			traceCloses = append(traceCloses, sink.Close, f.Close)
			return &telemetry.Telemetry{Events: telemetry.NewTracer(0, sink)}
		}
	}
	start := time.Now()
	res, err := harness.RunFleet(o.config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smarq-bench:", err)
		os.Exit(1)
	}
	// RunFleet flushed each tenant's tracer as it finished; the sinks and
	// files are closed here, after every tenant is done.
	for _, closeFn := range traceCloses {
		if err := closeFn(); err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench: trace:", err)
			os.Exit(1)
		}
	}
	if o.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench:", err)
			os.Exit(1)
		}
	} else {
		fmt.Println(res.Render())
	}
	if registry != nil {
		f, err := os.Create(o.metricsFile)
		if err == nil {
			err = registry.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench:", err)
			os.Exit(1)
		}
	}
	if o.verify {
		if err := harness.VerifyFleet(o.config, res); err != nil {
			fmt.Fprintln(os.Stderr, "smarq-bench: fleet-verify:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "# fleet-verify: every tenant byte-identical to its solo run")
	}
	fmt.Fprintf(os.Stderr, "# smarq-bench: fleet of %d tenants (%s) in %s\n",
		len(res.Tenants), res.CompileMode(), time.Since(start).Round(time.Millisecond))
}
