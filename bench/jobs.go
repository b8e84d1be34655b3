package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"smarq/internal/dynopt"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/harness"
	"smarq/internal/interp"
	"smarq/internal/workload"
)

// The four workloads. README.md gives the reason for each.
const (
	wFigures     = "figures"
	wColdstart   = "coldstart"
	wMispeculate = "mispeculate"
	wFleet       = "fleet"
)

var workloadNames = []string{wFigures, wColdstart, wMispeculate, wFleet}

// figureConfigs are the named configurations behind Figures 15/16 and the
// Efficeon comparison.
var figureConfigs = []string{"nohw", "smarq64", "smarq16", "alat", "efficeon", "nostorereorder"}

const (
	// coldBudgets is how many instruction budgets each program gets in
	// coldstart: one per stratum of [coldMin, coldMax), jittered by the
	// seed, so every seed covers the whole warm-up window evenly.
	coldBudgets = 8
	coldMin     = 10_000
	coldMax     = 50_000
	// chaosPerProgram is how many chaos seeds each program runs under in
	// mispeculate; averaging over several keeps the per-seed mix steady.
	chaosPerProgram = 12
	// fleetTenants is the tenant count of every fleet job: the reference
	// host has two cores, and more tenants than cores would measure the
	// Go scheduler instead of the program.
	fleetTenants = 2
	// fleetWorkers sizes each fleet's shared compile pool.
	fleetWorkers = 1
)

// program is one suite benchmark, built at set-up.
type program struct {
	bm   workload.Benchmark
	prog *guest.Program
}

// job is one unit of timed work: a solo dynopt run, or one fleet run when
// mix is set.
type job struct {
	bench  string // the program of a solo job
	config string
	cfg    dynopt.Config
	budget uint64 // guest-instruction cap; bm.MaxInsts runs to halt
	halt   bool   // the job must halt within budget
	mix    []string
}

// name identifies the job in traces and failure messages.
func (j *job) name() string {
	if j.mix != nil {
		return fmt.Sprintf("fleet[%s+%s]", j.mix[0], j.mix[1])
	}
	s := j.bench + "/" + j.config
	if j.cfg.Chaos.Enabled() {
		s += fmt.Sprintf("/chaos%d", j.cfg.Chaos.Seed)
	}
	if !j.halt {
		s += fmt.Sprintf("/%d", j.budget)
	}
	return s
}

// buildPrograms builds every suite program.
func buildPrograms() map[string]*program {
	progs := make(map[string]*program)
	for _, bm := range workload.Suite() {
		progs[bm.Name] = &program{bm: bm, prog: bm.Build()}
	}
	return progs
}

// buildJobs returns a workload's job list. The seed draws the inputs; the
// list is the same on every pass, only its order changes.
func buildJobs(name string, seed int64, progs map[string]*program) ([]job, error) {
	rng := rand.New(rand.NewSource(seed))
	suite := workload.Suite()
	var jobs []job
	solo := func(bench, config string, budget uint64, chaos int64) error {
		cfg, err := harness.ParseConfig(config)
		if err != nil {
			return err
		}
		if chaos != 0 {
			cfg.Chaos = faultinject.Default(chaos)
		}
		j := job{bench: bench, config: config, cfg: cfg, budget: budget}
		if budget == 0 {
			j.budget, j.halt = progs[bench].bm.MaxInsts, true
		}
		jobs = append(jobs, j)
		return nil
	}
	switch name {
	case wFigures:
		for _, bm := range suite {
			for _, c := range figureConfigs {
				if err := solo(bm.Name, c, 0, 0); err != nil {
					return nil, err
				}
			}
		}
	case wColdstart:
		const stratum = (coldMax - coldMin) / coldBudgets
		for _, bm := range suite {
			for k := 0; k < coldBudgets; k++ {
				budget := uint64(coldMin + k*stratum + rng.Intn(stratum))
				if err := solo(bm.Name, "smarq64", budget, 0); err != nil {
					return nil, err
				}
			}
		}
	case wMispeculate:
		for _, bm := range suite {
			for k := 0; k < chaosPerProgram; k++ {
				if err := solo(bm.Name, "smarq64", 0, 1+rng.Int63n(1<<40)); err != nil {
					return nil, err
				}
			}
		}
	case wFleet:
		// Each program runs once as an identical pair (shared regions:
		// dedupe and single-flight waits) and four times in distinct pairs
		// (insert-only): its neighbours one and two places away in a
		// seeded cyclic order. Every seed runs the same instruction mix
		// and changes only the pairing and the order.
		perm := rng.Perm(len(suite))
		for _, bm := range suite {
			jobs = append(jobs, fleetJob(bm.Name, bm.Name))
		}
		for _, step := range []int{1, 2} {
			for i := range perm {
				a, b := suite[perm[i]].Name, suite[perm[(i+step)%len(perm)]].Name
				jobs = append(jobs, fleetJob(a, b))
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return jobs, nil
}

func fleetJob(a, b string) job {
	return job{config: harness.CfgSMARQ64, mix: []string{a, b}, halt: true}
}

func (j *job) fleetConfig() harness.FleetConfig {
	return harness.FleetConfig{Tenants: fleetTenants, Mix: j.mix, Config: j.config, CompileWorkers: fleetWorkers}
}

// outcome is what one job run returns: its timed span and the results the
// checks and metrics read.
type outcome struct {
	dur   time.Duration
	insts int64
	err   error
	// solo jobs
	sys    *dynopt.System
	halted bool
	// fleet jobs
	fleet *harness.FleetResult
}

// run executes the job. The timed span covers guest.NewMemory, dynopt.New
// and System.Run, or the whole RunFleet call.
func (j *job) run(p *program) outcome {
	if j.mix != nil {
		t0 := time.Now()
		res, err := harness.RunFleet(j.fleetConfig())
		o := outcome{dur: time.Since(t0), err: err, fleet: res}
		if err == nil {
			o.insts = res.GuestInsts()
		}
		return o
	}
	t0 := time.Now()
	sys := dynopt.New(p.prog, &guest.State{}, guest.NewMemory(p.bm.MemSize), j.cfg)
	halted, err := sys.Run(j.budget)
	return outcome{dur: time.Since(t0), err: err, sys: sys, halted: halted, insts: sys.Stats.GuestInsts}
}

// signature is everything about a finished run that must repeat exactly:
// the simulated cycles, every counter the per-layer metrics read, and the
// final guest state.
type signature struct {
	halted bool
	insts  int64
	cycles int64
	stats  uint64
	state  guest.State
	digest uint64
}

func sigOf(st *dynopt.Stats, halted bool, state *guest.State, digest uint64) signature {
	return signature{halted: halted, insts: st.GuestInsts, cycles: st.TotalCycles,
		stats: statsKey(st), state: *state, digest: digest}
}

// statsKey folds the deterministic Stats counters (FNV-1a over 64-bit
// words, without allocating: it runs between timed jobs and would
// otherwise count toward alloc_kb_per_run). The shared-cache
// hit/miss/dedupe counters are left out: they depend on how fleet tenants
// interleave (harness.ScrubSharedCounters).
func statsKey(st *dynopt.Stats) uint64 {
	h := uint64(14695981039346656037)
	put := func(v int64) {
		h ^= uint64(v)
		h *= 1099511628211
	}
	for _, v := range [...]int64{
		st.TotalCycles, st.InterpCycles, st.RegionCycles, st.RollbackCycles, st.OptCycles, st.SchedCycles,
		st.Commits, st.GuardFails, st.AliasExceptions, st.Faults,
		int64(st.RegionsCompiled), int64(st.Recompiles), int64(st.RegionsDropped), int64(st.OverflowRetries),
		st.Compile.Enqueued, st.Compile.Installed, st.Compile.Canceled, st.Compile.Failed, st.Compile.WorkCycles,
		st.Recovery.Demotions, st.Recovery.Promotions, st.Recovery.Evictions,
		st.GuestInsts, st.InterpretedInsts, int64(st.HWChecks),
	} {
		put(v)
	}
	for i := range st.Regions {
		r := &st.Regions[i]
		for _, v := range [...]int{r.Entry, r.GuestInsts, r.MemOps, r.Alloc.PBits, r.Alloc.CBits,
			r.Alloc.Checks, r.Alloc.Antis, r.Alloc.AMovs, r.SeqLen} {
			put(int64(v))
		}
		put(r.Cycles)
	}
	return h
}

// sameSig compares two signatures, float registers by bit pattern.
func sameSig(a, b *signature) bool {
	if a.halted != b.halted || a.insts != b.insts || a.cycles != b.cycles ||
		a.stats != b.stats || a.digest != b.digest || a.state.R != b.state.R {
		return false
	}
	for i := range a.state.F {
		if math.Float64bits(a.state.F[i]) != math.Float64bits(b.state.F[i]) {
			return false
		}
	}
	return true
}

// reference is a run of the reference interpreter (guest.Exec, one
// instruction at a time) to a given retirement count.
type reference struct {
	halted bool
	insts  uint64
	state  guest.State
	digest uint64
}

func runReference(p *program, budget uint64) (reference, error) {
	st := &guest.State{}
	mem := guest.NewMemory(p.bm.MemSize)
	it := interp.New(p.prog, st, mem)
	it.Ref = true
	halted, err := it.Run(p.prog.Entry, budget)
	if err != nil {
		return reference{}, fmt.Errorf("reference run of %s: %w", p.bm.Name, err)
	}
	return reference{halted: halted, insts: it.DynInsts, state: *st, digest: mem.Digest()}, nil
}

// checker holds what each job's output must equal: the reference
// interpreter's final state, then the first run's signature.
type checker struct {
	progs map[string]*program
	refs  map[string]reference // run-to-halt references, per program
	sigs  [][]signature        // per job index; one per tenant
}

func newChecker(progs map[string]*program, njobs int) *checker {
	return &checker{progs: progs, refs: make(map[string]reference), sigs: make([][]signature, njobs)}
}

func (c *checker) haltRef(bench string) (reference, error) {
	if r, ok := c.refs[bench]; ok {
		return r, nil
	}
	p := c.progs[bench]
	r, err := runReference(p, p.bm.MaxInsts)
	if err == nil && !r.halted {
		err = fmt.Errorf("reference run of %s did not halt", bench)
	}
	if err != nil {
		return r, err
	}
	c.refs[bench] = r
	return r, nil
}

// check verifies job i's outcome. The first run of a job is checked
// against the reference interpreter (and, for fleets, against each
// tenant's solo run); every later run must repeat its signature exactly.
func (c *checker) check(i int, j *job, o *outcome) error {
	if o.err != nil {
		return o.err
	}
	var buf [fleetTenants]signature
	got := buf[:1]
	if o.fleet != nil {
		got = buf[:len(o.fleet.Tenants)]
		for t := range got {
			ft := &o.fleet.Tenants[t]
			got[t] = sigOf(&ft.Stats, ft.Halted, &ft.State, ft.MemDigest)
		}
	} else {
		got[0] = sigOf(&o.sys.Stats, o.halted, o.sys.State(), o.sys.Mem().Digest())
	}
	if want := c.sigs[i]; want != nil {
		for t := range got {
			if !sameSig(&got[t], &want[t]) {
				return fmt.Errorf("%s: run differs from its first run (sim cycles %d vs %d)",
					j.name(), got[t].cycles, want[t].cycles)
			}
		}
		return nil
	}
	if o.fleet != nil {
		if err := harness.VerifyFleet(j.fleetConfig(), o.fleet); err != nil {
			return err
		}
	}
	for t := range got {
		bench := j.bench
		if o.fleet != nil {
			bench = o.fleet.Tenants[t].Bench
		}
		var ref reference
		var err error
		if j.halt {
			if !got[t].halted {
				return fmt.Errorf("%s: did not halt", j.name())
			}
			ref, err = c.haltRef(bench)
		} else {
			ref, err = runReference(c.progs[bench], uint64(got[t].insts))
		}
		if err != nil {
			return err
		}
		want := signature{halted: ref.halted, insts: int64(ref.insts), cycles: got[t].cycles,
			stats: got[t].stats, state: ref.state, digest: ref.digest}
		if !sameSig(&got[t], &want) {
			return fmt.Errorf("%s: final state differs from the reference interpreter at %d guest insts",
				j.name(), got[t].insts)
		}
	}
	c.sigs[i] = append([]signature(nil), got...)
	return nil
}

// simCPI is the job's simulated cycles per guest instruction, from its
// recorded signature.
func (c *checker) simCPI(i int) float64 {
	var cycles, insts int64
	for _, s := range c.sigs[i] {
		cycles += s.cycles
		insts += s.insts
	}
	if insts == 0 {
		return 0
	}
	return float64(cycles) / float64(insts)
}
