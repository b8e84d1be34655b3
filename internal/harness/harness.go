// Package harness regenerates the paper's tables and figures: it runs the
// benchmark suite under the alias-hardware configurations of §6 and
// derives each reported statistic. Each FigureN/TableN function returns a
// data structure with a Render method producing the text table.
package harness

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// Runner executes benchmark×configuration cells on demand and caches the
// results, so the figures share runs. It is safe for concurrent use: each
// cell is a single-flight slot, so two figures requesting the same cell
// share one run, and Warm fans a cell set out over a bounded worker pool.
type Runner struct {
	Suite []workload.Benchmark
	// Parallelism bounds how many cells Warm executes concurrently.
	// Zero or negative means runtime.GOMAXPROCS(0).
	Parallelism int
	// Verbose, when set, receives one summary line per completed cell.
	// The sink serializes concurrent writers, so lines never interleave;
	// under parallel execution the completion *order* is nondeterministic
	// (the artifact stream on stdout stays byte-identical regardless —
	// only this progress stream reorders).
	Verbose *telemetry.LineSink
	// Telemetry, when set, builds the telemetry bundle for each cell
	// before it runs (return nil to leave a cell untraced). The runner
	// flushes the cell's tracer when the run completes; closing sinks is
	// the caller's job.
	Telemetry func(bench, config string) *telemetry.Telemetry
	// ConfigHook, when set, rewrites each cell's configuration just
	// before the run (smarq-bench uses it to apply the background
	// compilation flags across every named configuration). It must be a
	// pure function of its input — the same cell must always get the same
	// effective configuration, or the result cache lies.
	ConfigHook func(dynopt.Config) dynopt.Config

	byName map[string]workload.Benchmark

	mu      sync.Mutex // guards configs and cache
	configs map[string]dynopt.Config
	cache   map[Cell]*cellResult
}

// Cell names one benchmark×configuration run.
type Cell struct {
	Bench, Config string
}

// cellResult is the single-flight slot for one cell: the first goroutine
// to need it executes the run inside once; everyone else blocks on
// once.Do and shares the outcome (including errors).
type cellResult struct {
	once  sync.Once
	stats *dynopt.Stats
	err   error
}

// Standard configuration names.
const (
	CfgSMARQ64 = "smarq64"
	CfgSMARQ16 = "smarq16"
	CfgALAT    = "alat"
	CfgNoHW    = "nohw"
	CfgNoStRe  = "nostorereorder"
)

// NewRunner returns a Runner over the given suite (nil means the full
// suite).
func NewRunner(suite []workload.Benchmark) *Runner {
	if suite == nil {
		suite = workload.Suite()
	}
	byName := make(map[string]workload.Benchmark, len(suite))
	for _, bm := range suite {
		byName[bm.Name] = bm
	}
	return &Runner{
		Suite:  suite,
		byName: byName,
		configs: map[string]dynopt.Config{
			CfgSMARQ64: dynopt.ConfigSMARQ(64),
			CfgSMARQ16: dynopt.ConfigSMARQ(16),
			CfgALAT:    dynopt.ConfigALAT(),
			CfgNoHW:    dynopt.ConfigNoHW(),
			CfgNoStRe:  dynopt.ConfigNoStoreReorder(),
		},
		cache: make(map[Cell]*cellResult),
	}
}

// AddConfig registers a custom configuration (used by the scaling sweep
// and the ablations).
func (r *Runner) AddConfig(name string, cfg dynopt.Config) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.configs[name] = cfg
}

// parallelism resolves the effective worker count.
func (r *Runner) parallelism() int {
	if r.Parallelism > 0 {
		return r.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// cell returns the single-flight slot for a cell, creating it on first
// request.
func (r *Runner) cell(bench, config string) *cellResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := Cell{bench, config}
	c, ok := r.cache[key]
	if !ok {
		c = &cellResult{}
		r.cache[key] = c
	}
	return c
}

// Run returns the stats for one benchmark under one configuration,
// executing it on first use. Concurrent calls for the same cell share a
// single execution; errors are cached alongside results so every caller
// observes the same outcome.
func (r *Runner) Run(bench, config string) (*dynopt.Stats, error) {
	c := r.cell(bench, config)
	c.once.Do(func() { c.stats, c.err = r.execute(bench, config) })
	return c.stats, c.err
}

// execute performs one benchmark×configuration run. Each run owns a
// fresh State and Memory; every cell of a benchmark shares its one
// immutable Program (workload.Benchmark.Build), so runs never share
// mutable state.
func (r *Runner) execute(bench, config string) (*dynopt.Stats, error) {
	bm, ok := r.byName[bench]
	if !ok {
		return nil, fmt.Errorf("harness: no benchmark %q in this runner's suite", bench)
	}
	r.mu.Lock()
	cfg, ok := r.configs[config]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("harness: no configuration %q", config)
	}
	if r.ConfigHook != nil {
		cfg = r.ConfigHook(cfg)
	}
	if r.Telemetry != nil {
		cfg.Telemetry = r.Telemetry(bench, config)
	}
	sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	halted, err := sys.Run(bm.MaxInsts)
	if ferr := cfg.Telemetry.Tracer().Flush(); ferr != nil && err == nil {
		err = ferr
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s/%s: %w", bench, config, err)
	}
	if !halted {
		return nil, fmt.Errorf("harness: %s/%s did not halt", bench, config)
	}
	if r.Verbose != nil {
		r.Verbose.Emitf("# %s/%s: %s", bench, config, SummaryLine(&sys.Stats))
	}
	return &sys.Stats, nil
}

// Warm executes the given cells concurrently, bounded by Parallelism,
// and blocks until all have completed. Results (and errors) land in the
// single-flight cache, so a figure can Warm its cell set and then
// aggregate with serial Run calls in a fixed order — which is what keeps
// parallel and serial artifact output byte-identical. Errors are not
// returned here: the aggregation loop re-surfaces the cached error of
// the first failing cell in its own deterministic order.
func (r *Runner) Warm(cells []Cell) {
	n := r.parallelism()
	if n > len(cells) {
		n = len(cells)
	}
	if n <= 1 {
		return // Run executes cells on demand; nothing to pre-warm.
	}
	work := make(chan Cell)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			for c := range work {
				r.Run(c.Bench, c.Config)
			}
		}()
	}
	for _, c := range cells {
		work <- c
	}
	close(work)
	wg.Wait()
}

// crossCells builds the bench×config cross product in row-major order —
// the cell set a figure's aggregation loop will visit.
func crossCells(benches, configs []string) []Cell {
	cells := make([]Cell, 0, len(benches)*len(configs))
	for _, b := range benches {
		for _, c := range configs {
			cells = append(cells, Cell{b, c})
		}
	}
	return cells
}

// geomean of a slice (1.0 for empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// table renders a simple fixed-width text table.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteString("\n")
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteString("\n")
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}

// benchNames returns the runner's suite names in order.
func (r *Runner) benchNames() []string {
	names := make([]string, len(r.Suite))
	for i, b := range r.Suite {
		names[i] = b.Name
	}
	return names
}

// sortedKeys is a helper for deterministic map iteration.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ParseConfig resolves a configuration name — smarq<N>, alat, efficeon,
// nohw, nostorereorder — to its dynopt.Config. CLI tools share it.
func ParseConfig(name string) (dynopt.Config, error) {
	switch name {
	case "alat":
		return dynopt.ConfigALAT(), nil
	case "efficeon":
		return dynopt.ConfigEfficeon(), nil
	case "nohw":
		return dynopt.ConfigNoHW(), nil
	case "nostorereorder":
		return dynopt.ConfigNoStoreReorder(), nil
	}
	var n int
	if _, err := fmt.Sscanf(name, "smarq%d", &n); err == nil {
		// ConfigSMARQ panics below 2 alias registers (Config.Validate);
		// reject with an error instead so CLI typos fail cleanly.
		if n < 2 {
			return dynopt.Config{}, fmt.Errorf("harness: %q needs at least 2 alias registers", name)
		}
		return dynopt.ConfigSMARQ(n), nil
	}
	return dynopt.Config{}, fmt.Errorf("harness: unknown configuration %q", name)
}
