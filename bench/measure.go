package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

const (
	// rounds is how many timed rounds a workload's run is split into.
	// Rounds of different workloads run round-robin, so slow drift of the
	// host reaches every workload alike.
	rounds = 5
	// tailSamples is how many samples must lie beyond a percentile for it
	// to be reported as resolved.
	tailSamples = 10
)

// percentile returns the p-quantile (0 <= p <= 1) of sorted data by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// samplesBeyond counts the samples above the p-quantile's rank in n samples.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)-1e-9))
}

// resolved reports whether n samples leave at least tailSamples beyond the
// p-quantile.
func resolved(n int, p float64) bool { return samplesBeyond(n, p) >= tailSamples }

// quartiles returns the first quartile, median and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), so the spreads printed here match the ones a gate computes
// from the same values. One sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// metric is one reported number with the quartiles of its per-round (or
// per-set-up) values and the sample count behind it.
type metric struct {
	Unit    string  `json:"unit"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	Samples int     `json:"samples,omitempty"`
}

func metricOf(unit string, xs []float64, samples int) metric {
	q1, med, q3 := quartiles(xs)
	return metric{Unit: unit, Median: med, Q1: q1, Q3: q3, Samples: samples}
}

// withValue reports v with the quartiles of the per-round values xs.
func withValue(unit string, v float64, xs []float64, samples int) metric {
	m := metricOf(unit, xs, samples)
	m.Median = v
	return m
}

// fastest holds each job's fastest run. The reference host's neighbours
// slow a run at random by up to 2x; a job's fastest run over many is the
// cost of the code itself, and it repeats across runs where medians of
// single runs do not (README.md, "Why fastest runs").
type fastest struct {
	dur   []time.Duration // per job index; 0 until the job has run
	insts []int64
}

func newFastest(n int) fastest {
	return fastest{dur: make([]time.Duration, n), insts: make([]int64, n)}
}

func (f *fastest) add(i int, o *outcome) {
	if f.dur[i] == 0 || o.dur < f.dur[i] {
		f.dur[i] = o.dur
	}
	f.insts[i] = o.insts
}

// timing returns guest MIPS over one pass of the job list and the median
// and 95th percentile of the jobs' run times in ms, all at each job's
// fastest run.
func (f *fastest) timing() (mips, p50, p95 float64) {
	var insts int64
	var busy time.Duration
	ms := make([]float64, 0, len(f.dur))
	for i, d := range f.dur {
		if d == 0 {
			continue
		}
		insts += f.insts[i]
		busy += d
		ms = append(ms, float64(d)/1e6)
	}
	sort.Float64s(ms)
	return float64(insts) / busy.Seconds() / 1e6, percentile(ms, 0.5), percentile(ms, 0.95)
}

// roundResult is one timed round of one workload.
type roundResult struct {
	mips, p50, p95, allocKB float64
}

// runner drives one workload: set-up, timed rounds, and the traced pass.
// It runs every job on the calling goroutine, as a closed loop.
type runner struct {
	name  string
	seed  int64
	progs map[string]*program
	jobs  []job
	check *checker
	rng   *rand.Rand // pass order
	order []int
	// jobLimit, when positive, keeps only that prefix of the job list (the
	// smoke test's tiny passes).
	jobLimit int

	attempted, failed int
	firstErr          error

	setups  []float64 // seconds
	byRound []roundResult
	best    fastest // over all timed rounds
	runs    int     // timed runs
	hostMB  float64
}

func newRunner(name string, seed int64) *runner {
	return &runner{name: name, seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// setup builds the programs and the job list and runs one warm-up pass;
// it runs before every round, and setup_s is the median. It counts
// program and job-list construction plus the warm-up pass's job spans;
// checking outputs against the reference interpreter is not counted.
func (r *runner) setup() error {
	t0 := time.Now()
	progs := buildPrograms()
	jobs, err := buildJobs(r.name, r.seed, progs)
	build := time.Since(t0)
	if err != nil {
		return err
	}
	if r.jobLimit > 0 && len(jobs) > r.jobLimit {
		jobs = jobs[:r.jobLimit]
	}
	r.progs, r.jobs = progs, jobs
	if r.check == nil {
		r.check = newChecker(progs, len(jobs))
		r.order = make([]int, len(jobs))
		for i := range r.order {
			r.order[i] = i
		}
		r.best = newFastest(len(jobs))
	}
	r.check.progs = progs
	var busy time.Duration
	r.pass(nil, func(_ int, o *outcome) { busy += o.dur })
	r.setups = append(r.setups, (build + busy).Seconds())
	return nil
}

// shuffle draws the next pass's job order.
func (r *runner) shuffle() {
	r.rng.Shuffle(len(r.order), func(a, b int) { r.order[a], r.order[b] = r.order[b], r.order[a] })
}

// pass runs the whole job list once in a fresh seeded order, checks each
// job's output, and hands each outcome to rec. When allocKB is not nil it
// also records what each job allocates, in KiB, by job index.
func (r *runner) pass(allocKB []float64, rec func(int, *outcome)) {
	r.shuffle()
	var ms runtime.MemStats
	for _, i := range r.order {
		j := &r.jobs[i]
		var alloc0 uint64
		if allocKB != nil {
			runtime.ReadMemStats(&ms)
			alloc0 = ms.TotalAlloc
		}
		o := j.run(r.progs[j.bench])
		if allocKB != nil {
			runtime.ReadMemStats(&ms)
			allocKB[i] = float64(ms.TotalAlloc-alloc0) / 1024
		}
		r.record(r.check.check(i, j, &o))
		rec(i, &o)
	}
}

// record counts one attempted job and its failure, if any.
func (r *runner) record(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// round runs whole passes until share has elapsed and records the round.
// Its first pass also records what each job allocates: a job's allocation
// repeats from run to run, so one pass per round measures it.
func (r *runner) round(share time.Duration) {
	rb := newFastest(len(r.jobs))
	rec := func(i int, o *outcome) {
		rb.add(i, o)
		r.best.add(i, o)
		r.runs++
	}
	allocKB := make([]float64, len(r.jobs))
	start := time.Now()
	r.pass(allocKB, rec)
	for time.Since(start) < share {
		r.pass(nil, rec)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.hostMB = float64(ms.Sys) / 1e6
	rr := roundResult{allocKB: geomean(allocKB)}
	rr.mips, rr.p50, rr.p95 = rb.timing()
	r.byRound = append(r.byRound, rr)
}

// simCPI is the geometric mean over the job list of each job's simulated
// cycles per guest instruction.
func (r *runner) simCPI() float64 {
	xs := make([]float64, len(r.jobs))
	for i := range xs {
		xs[i] = r.check.simCPI(i)
	}
	return geomean(xs)
}

// endToEnd returns the workload's end-to-end metrics: timings at each
// job's fastest run over all rounds, with the per-round values' quartiles;
// allocation as the geometric mean over the job list of what each job
// allocates, median over rounds.
func (r *runner) endToEnd() map[string]metric {
	col := func(f func(*roundResult) float64) []float64 {
		xs := make([]float64, len(r.byRound))
		for i := range r.byRound {
			xs[i] = f(&r.byRound[i])
		}
		return xs
	}
	mips, p50, p95 := r.best.timing()
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	return map[string]metric{
		"guest_mips":       withValue("Minst/s", mips, col(func(x *roundResult) float64 { return x.mips }), r.runs),
		"run_ms_p50":       withValue("ms", p50, col(func(x *roundResult) float64 { return x.p50 }), len(r.jobs)),
		"run_ms_p95":       withValue("ms", p95, col(func(x *roundResult) float64 { return x.p95 }), len(r.jobs)),
		"setup_s":          metricOf("s", r.setups, len(r.setups)),
		"alloc_kb_per_run": metricOf("KiB", col(func(x *roundResult) float64 { return x.allocKB }), len(r.jobs)),
		"host_mem_mb":      metricOf("MB", []float64{r.hostMB}, 0),
		"sim_cpi":          metricOf("cycles/inst", []float64{r.simCPI()}, len(r.jobs)),
		"error_rate":       metricOf("ratio", []float64{errRate}, r.attempted),
	}
}

// endToEndOrder is the order metrics are printed in.
var endToEndOrder = []string{"guest_mips", "run_ms_p50", "run_ms_p95", "setup_s",
	"alloc_kb_per_run", "host_mem_mb", "sim_cpi", "error_rate"}

// describe renders a metric for the human report.
func describe(name string, m metric) string {
	s := fmt.Sprintf("%-32s %12.4f %-11s [q1 %.4f, q3 %.4f]", name, m.Median, m.Unit, m.Q1, m.Q3)
	if m.Samples > 0 {
		s += fmt.Sprintf(" n=%d", m.Samples)
	}
	if (name == "run_ms_p95" || name == "job.run_ms_p95") && !resolved(m.Samples, 0.95) {
		s += fmt.Sprintf(" (p95 unresolved: %d samples beyond it, want %d)", samplesBeyond(m.Samples, 0.95), tailSamples)
	}
	return s
}
