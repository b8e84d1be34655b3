package main

// The traced pass and the layer replay. The traced pass runs the job list
// once more with a `job` span per job around the same untraced call the
// timed rounds make. The replay then calls each layer's public functions
// on the same programs and configurations, one span per call (or per loop
// of a cheap call), and the reconciliation prices every job's Stats
// counts with the replayed unit costs.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"smarq/internal/alias"
	"smarq/internal/aliashw"
	"smarq/internal/atomic"
	"smarq/internal/codecache"
	"smarq/internal/compilequeue"
	"smarq/internal/core"
	"smarq/internal/deps"
	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/harness"
	"smarq/internal/interp"
	"smarq/internal/ir"
	"smarq/internal/opt"
	"smarq/internal/region"
	"smarq/internal/sched"
	"smarq/internal/vliw"
	"smarq/internal/xlate"
)

// Trace lanes.
const (
	laneJobs   = 1
	laneReplay = 2
)

// Iterations of the replay loops that time one cheap call many times.
const (
	allocIters    = 8
	resetIters    = 256
	rollbackIters = 64
	lookupIters   = 4096
)

// layerDefs are the per-layer metrics, in report order.
var layerDefs = []struct{ name, unit string }{
	{"guest.memory_us", "us"},
	{"interp.decode_us", "us"},
	{"interp.ns_per_inst", "ns"},
	{"interp.insts_per_run", "count"},
	{"region.form_us", "us"},
	{"region.sb_insts", "count"},
	{"xlate.translate_us", "us"},
	{"xlate.ir_ops", "count"},
	{"alias.table_us", "us"},
	{"alias.memops", "count"},
	{"opt.run_us", "us"},
	{"deps.compute_us", "us"},
	{"sched.run_us", "us"},
	{"sched.overflow_retry_ratio", "ratio"},
	{"core.checks_per_memop", "ratio"},
	{"core.antis_per_memop", "ratio"},
	{"core.amovs_per_region", "count"},
	{"ir.freeze_us", "us"},
	{"vliw.bake_us", "us"},
	{"vliw.code_bytes", "bytes"},
	{"vliw.checksum_us", "us"},
	{"vliw.exec_ns_per_entry", "ns"},
	{"vliw.exec_ns_per_inst", "ns"},
	{"vliw.commit_ratio", "ratio"},
	{"aliashw.checks_per_kinst", "count"},
	{"aliashw.reset_ns", "ns"},
	{"atomic.rollback_ns", "ns"},
	{"dynopt.rollbacks_per_run", "count"},
	{"codecache.lookup_ns", "ns"},
	{"codecache.hit_ratio", "ratio"},
	{"codecache.dedupe_pct", "%"},
	{"codecache.contention_per_lookup", "ratio"},
	{"harness.fleet_scaling_eff", "ratio"},
	{"harness.tenant_wall_skew", "ratio"},
	{"dynopt.compiles_per_run", "count"},
	{"dynopt.dispatches_per_run", "count"},
	{"dynopt.interp_share", "ratio"},
	{"dynopt.compile_share", "ratio"},
	{"dynopt.exec_share", "ratio"},
	{"dynopt.unattributed_frac", "ratio"},
	{"gc.cycles_per_run", "count"},
	{"gc.pause_frac", "ratio"},
	{"job.guest_mips", "Minst/s"},
	{"job.run_ms_p50", "ms"},
	{"job.run_ms_p95", "ms"},
	{"trace.overhead_frac", "ratio"},
	{"replay.shape_mismatch", "ratio"},
}

var layerOrder = func() []string {
	names := make([]string, len(layerDefs))
	for i, l := range layerDefs {
		names[i] = l.name
	}
	return names
}()

// compileStages are the replayed compile calls; their mean self time per
// region is the named metric.
var compileStages = []struct{ span, metric string }{
	{"region.Form", "region.form_us"},
	{"xlate.TranslateArena", "xlate.translate_us"},
	{"alias.BuildTable", "alias.table_us"},
	{"opt.Run", "opt.run_us"},
	{"deps.Compute", "deps.compute_us"},
	{"sched.Run", "sched.run_us"},
	{"ir.Freeze", "ir.freeze_us"},
	{"vliw.Compile", "vliw.bake_us"},
	{"vliw.Checksum", "vliw.checksum_us"},
}

// fromFastest are the per-layer metrics computed from run times: each
// job's traced run, priced against the replayed unit costs.
var fromFastest = []string{"job.guest_mips", "job.run_ms_p50", "job.run_ms_p95", "dynopt.interp_share", "dynopt.compile_share", "dynopt.exec_share",
	"dynopt.unattributed_frac", "harness.fleet_scaling_eff", "harness.tenant_wall_skew"}

// traceWorkload runs traced repetitions of r's job list until d has
// elapsed (at least one), adds the first repetition's spans to t under
// process pid, and returns each per-layer metric as the median over
// repetitions — except fromFastest, which are computed once more from
// each job's fastest traced run and each unit's cheapest replay, for the
// reason README.md gives under "Why fastest runs".
func traceWorkload(r *runner, t *tracer, pid int, d time.Duration) (map[string]metric, error) {
	t.procs[int32(pid)] = r.name
	var reps []map[string]float64
	var fast *repData
	for start := time.Now(); len(reps) == 0 || time.Since(start) < d; {
		rt := &tracer{epoch: t.epoch}
		rep, err := traceRep(r, rt, pid)
		if err != nil {
			return nil, err
		}
		if fast == nil {
			t.absorb(rt) // the trace file keeps the first repetition
			fast = rep
		} else {
			fast.keepFastest(rep)
		}
		reps = append(reps, rep.metrics)
	}
	out := make(map[string]metric, len(layerDefs))
	for _, l := range layerDefs {
		xs := make([]float64, len(reps))
		for i, m := range reps {
			xs[i] = m[l.name]
		}
		out[l.name] = metricOf(l.unit, xs, len(reps))
	}
	var a recon
	a.add(fast)
	best := make(map[string]float64)
	a.metrics(best)
	for _, name := range fromFastest {
		m := out[name]
		m.Median = best[name]
		out[name] = m
	}
	for _, name := range []string{"job.run_ms_p50", "job.run_ms_p95"} {
		m := out[name]
		m.Samples = len(a.runMs)
		out[name] = m
	}
	return out, nil
}

// absorb appends another tracer's spans, keeping their parent links.
func (t *tracer) absorb(o *tracer) {
	off := int32(len(t.spans))
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += off
		}
		t.spans = append(t.spans, s)
	}
}

// pairKey names a (program, configuration) pair the replay measures once.
func pairKey(bench, config string) string { return bench + "/" + config }

// replayRegion is one superblock the replay formed and compiled, with the
// compile outputs dynopt records in its RegionStats.
type replayRegion struct {
	entry, sbInsts, memOps, irOps, seqLen int
	codeBytes, formNs                     int64
	key                                   codecache.Key
	alloc                                 core.Stats
	working                               core.WorkingSets
}

// pairCosts are a pair's replayed unit costs, in ns, and the sums they
// come from.
type pairCosts struct {
	memNs, decodeNs float64 // per guest.NewMemory, per interp.New
	interpNsPerInst float64
	compileNs       float64 // per compile: every stage plus bookkeeping
	formNs          float64 // per compile: region.Form alone
	execNsPerInst   float64 // per guest instruction of a committed entry
	rollbackNs      float64 // per rolled-back entry

	regions               []replayRegion
	interpNs, interpInsts int64
	execNs, execInsts     int64
	execEntries           int64
}

// tracedJob is one job of the traced pass; ok is false when it failed
// its check.
type tracedJob struct {
	ok    bool
	key   string               // solo jobs: the replayed pair
	stats dynopt.Stats         // solo jobs
	fleet *harness.FleetResult // fleet jobs
	runNs float64
	insts int64 // guest instructions, over all tenants
}

// repData is what one traced repetition measured.
type repData struct {
	metrics map[string]float64
	costs   map[string]*pairCosts
	jobs    []tracedJob              // by job index
	solo    map[string]time.Duration // fleet: each program's solo wall time
}

// keepFastest folds another repetition into d, keeping each job's fastest
// run and each pair's cheapest unit costs.
func (d *repData) keepFastest(o *repData) {
	for i := range d.jobs {
		if oj := &o.jobs[i]; oj.ok && (!d.jobs[i].ok || oj.runNs < d.jobs[i].runNs) {
			d.jobs[i] = *oj
		}
	}
	for k, c := range d.costs {
		oc := o.costs[k]
		c.memNs = min(c.memNs, oc.memNs)
		c.decodeNs = min(c.decodeNs, oc.decodeNs)
		c.interpNsPerInst = min(c.interpNsPerInst, oc.interpNsPerInst)
		c.compileNs = min(c.compileNs, oc.compileNs)
		c.formNs = min(c.formNs, oc.formNs)
		c.execNsPerInst = minNonZero(c.execNsPerInst, oc.execNsPerInst)
		c.rollbackNs = minNonZero(c.rollbackNs, oc.rollbackNs)
	}
	for b, w := range o.solo {
		d.solo[b] = min(d.solo[b], w)
	}
}

func minNonZero(a, b float64) float64 {
	if a == 0 || (b != 0 && b < a) {
		return b
	}
	return a
}

// traceRep is one traced repetition: the replay of every pair, then the
// traced pass over the job list, reconciled against the replay.
func traceRep(r *runner, t *tracer, pid int) (*repData, error) {
	d := &repData{metrics: make(map[string]float64, len(layerDefs)), costs: make(map[string]*pairCosts),
		jobs: make([]tracedJob, len(r.jobs)), solo: make(map[string]time.Duration)}
	ar := ir.NewArena()
	var cacheKeys []codecache.Key
	for i := range r.jobs {
		j := &r.jobs[i]
		benches, cfg := []string{j.bench}, j.cfg
		if j.mix != nil {
			var err error
			if cfg, err = harness.ParseConfig(j.config); err != nil {
				return nil, err
			}
			benches = j.mix
		}
		for _, b := range benches {
			k := pairKey(b, j.config)
			if d.costs[k] != nil {
				continue
			}
			c, err := replayPair(t, pid, k, r.progs[b], cfg, ar)
			if err != nil {
				return nil, err
			}
			d.costs[k] = c
			for _, rr := range c.regions {
				cacheKeys = append(cacheKeys, rr.key)
			}
		}
	}
	d.metrics["codecache.lookup_ns"] = replayLookups(t, pid, cacheKeys)

	if r.name == wFleet {
		for _, b := range sortedKeys(r.progs) {
			s := t.begin("harness.RunFleet.solo", -1, pid, laneReplay)
			_, err := harness.RunFleet(harness.FleetConfig{Tenants: 1, Mix: []string{b},
				Config: harness.CfgSMARQ64, CompileWorkers: fleetWorkers})
			d.solo[b] = time.Duration(t.end(s))
			if err != nil {
				return nil, err
			}
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	passStart := time.Now()
	r.shuffle()
	for _, i := range r.order {
		j := &r.jobs[i]
		root := t.begin("job", -1, pid, laneJobs)
		name := "dynopt.run"
		if j.mix != nil {
			name = "harness.RunFleet"
		}
		s := t.begin(name, root, pid, laneJobs)
		o := j.run(r.progs[j.bench])
		runNs := t.end(s)
		s = t.begin("check", root, pid, laneJobs)
		err := r.check.check(i, j, &o)
		t.end(s)
		t.end(root)
		if r.record(err); err != nil {
			continue
		}
		tj := tracedJob{ok: true, key: pairKey(j.bench, j.config), fleet: o.fleet, runNs: float64(runNs), insts: o.insts}
		if o.sys != nil {
			tj.stats = o.sys.Stats
		}
		d.jobs[i] = tj
	}
	passNs := float64(time.Since(passStart))
	runtime.ReadMemStats(&ms)
	d.metrics["gc.cycles_per_run"] = float64(ms.NumGC-gc0) / float64(len(r.jobs))
	d.metrics["gc.pause_frac"] = float64(ms.PauseTotalNs-pause0) / passNs

	var a recon
	a.add(d)
	a.metrics(d.metrics)
	spanMetrics(d.metrics, t.spans, d.costs)
	return d, nil
}

// detectorFor builds the configuration's alias hardware, as dynopt.New does.
func detectorFor(cfg dynopt.Config) aliashw.Detector {
	switch cfg.Mode {
	case sched.HWOrdered:
		return aliashw.NewOrderedQueue(cfg.NumAliasRegs)
	case sched.HWALAT:
		return aliashw.NewALAT()
	case sched.HWBitmask:
		return aliashw.NewBitmask(cfg.NumAliasRegs)
	}
	return aliashw.None{}
}

// optConfig and schedConfig are dynopt's pass settings at the full
// speculation tier (dynopt's optConfig and newCompileInput).
// TestReplayCompileMatchesDynopt fails when they drift apart.
func optConfig(cfg dynopt.Config) opt.Config {
	if cfg.Ablation.Elim {
		return opt.Config{}
	}
	switch cfg.Mode {
	case sched.HWOrdered, sched.HWBitmask:
		return opt.Config{LoadElim: true, StoreElim: true, Speculative: true}
	}
	return opt.Config{LoadElim: true, StoreElim: true}
}

func schedConfig(cfg dynopt.Config) sched.Config {
	return sched.Config{Mode: cfg.Mode, NumAliasRegs: cfg.NumAliasRegs, StoreReorder: cfg.StoreReorder,
		PressureMargin: 4, Machine: cfg.Machine,
		Alloc: core.Options{DisableAnti: cfg.Ablation.Anti, DisableRotation: cfg.Ablation.Rotation}}
}

// clockCost is what the two clock reads around one timed call cost.
func clockCost() time.Duration {
	const n = 1000
	var d time.Duration
	t0 := time.Now()
	for i := 0; i < n; i++ {
		d += time.Since(time.Now())
	}
	return (time.Since(t0) - d) / n
}

// replayPair replays every layer on one program under one configuration.
// It times guest.NewMemory and interp.New, interprets the whole program,
// then runs a minimal runtime over it: compile a block's region when the
// block reaches the hot threshold, execute installed regions, drop a
// region that leaves its trace. Each region entry is timed in place, on
// the live guest state, because re-running an entry from a saved state
// finds its data cold and costs about half as much again. Last it times
// detector resets and rollbacks of entries the size of each region's.
func replayPair(t *tracer, pid int, key string, p *program, cfg dynopt.Config, ar *ir.Arena) (*pairCosts, error) {
	root := t.begin("replay "+key, -1, pid, laneReplay)
	defer t.end(root)
	c := &pairCosts{}
	size := p.bm.MemSize

	s := t.begin("guest.NewMemory", root, pid, laneReplay)
	var mem *guest.Memory
	for i := 0; i < allocIters; i++ {
		mem = guest.NewMemory(size)
	}
	c.memNs = float64(t.end(s)) / allocIters
	st := &guest.State{}
	s = t.begin("interp.New", root, pid, laneReplay)
	var it *interp.Interpreter
	for i := 0; i < allocIters; i++ {
		it = interp.New(p.prog, st, mem)
	}
	c.decodeNs = float64(t.end(s)) / allocIters

	s = t.begin("interp.RunBlock", root, pid, laneReplay)
	id, err := p.prog.Entry, error(nil)
	for id != interp.HaltID && it.DynInsts < p.bm.MaxInsts && err == nil {
		id, err = it.RunBlock(id)
	}
	c.interpNs, c.interpInsts = t.end(s), int64(it.DynInsts)
	c.interpNsPerInst = float64(c.interpNs) / float64(c.interpInsts)
	if err != nil {
		return nil, fmt.Errorf("replay %s: %w", key, err)
	}

	st, mem = &guest.State{}, guest.NewMemory(size)
	it = interp.New(p.prog, st, mem)
	det := detectorFor(cfg)
	code := make([]*vliw.CompiledRegion, len(p.prog.Blocks))
	tried := make([]bool, len(p.prog.Blocks))
	var installed []*vliw.CompiledRegion
	stores := make(map[*vliw.CompiledRegion]int)
	var ctx vliw.ExecContext
	clock := clockCost()
	var compileNs, formNs, compiles int64
	rt := t.begin("runtime", root, pid, laneReplay)
	id = p.prog.Entry
	for retired := uint64(0); id != interp.HaltID && retired < p.bm.MaxInsts; {
		if cr := code[id]; cr != nil {
			t0 := time.Now()
			res := ctx.Execute(cr, st, mem, det)
			d := time.Since(t0) - clock
			if res.Outcome == vliw.Commit {
				c.execNs += int64(d)
				c.execEntries++
				c.execInsts += int64(cr.GuestInsts)
				stores[cr] = max(stores[cr], res.StoresBuffered)
				retired += uint64(cr.GuestInsts)
				id = res.NextBlock
				continue
			}
			code[id] = nil
		}
		before := it.DynInsts
		next, err := it.RunBlock(id)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", key, err)
		}
		retired += it.DynInsts - before
		if it.Prof.Hot(id, cfg.HotThreshold) && !tried[id] {
			tried[id] = true
			rr, cr, ns := compileRegion(t, rt, pid, p, it.Prof, id, cfg, ar)
			compileNs += ns
			formNs += rr.formNs
			compiles++
			if cr != nil {
				code[id] = cr
				installed = append(installed, cr)
				c.regions = append(c.regions, rr)
			}
		}
		id = next
	}
	t.end(rt)

	s = t.begin("aliashw.Reset", root, pid, laneReplay)
	for i := 0; i < resetIters; i++ {
		det.Reset()
	}
	t.end(s)
	var rollNs, rolls int64
	for _, cr := range installed {
		n, ok := stores[cr]
		if !ok {
			continue
		}
		s = t.begin("atomic.Rollback", root, pid, laneReplay)
		var reg atomic.Region
		for i := 0; i < rollbackIters; i++ {
			reg.Begin(st, mem)
			for k := 0; k < n; k++ {
				if err := reg.Store(uint64(8*k), 8, uint64(k)); err != nil {
					return nil, fmt.Errorf("replay %s: %w", key, err)
				}
			}
			reg.Rollback()
		}
		rollNs += t.end(s)
		rolls += rollbackIters
	}
	if c.execInsts > 0 {
		c.execNsPerInst = float64(c.execNs) / float64(c.execInsts)
	}
	if rolls > 0 {
		c.rollbackNs = float64(rollNs) / float64(rolls)
	}
	if compiles > 0 {
		c.compileNs = float64(compileNs) / float64(compiles)
		c.formNs = float64(formNs) / float64(compiles)
	}
	return c, nil
}

// compileRegion forms entry's superblock from prof and compiles it the way
// dynopt's compile pipeline does, one span per stage under a `compile`
// span. It returns nil code when a stage fails, and the compile span's
// duration.
func compileRegion(t *tracer, parent int32, pid int, p *program, prof *interp.Profile, entry int,
	cfg dynopt.Config, ar *ir.Arena) (replayRegion, *vliw.CompiledRegion, int64) {
	cs := t.begin("compile", parent, pid, laneReplay)
	rr, cr := buildRegion(t, cs, pid, p, prof, entry, cfg, ar)
	return rr, cr, t.end(cs)
}

func buildRegion(t *tracer, cs int32, pid int, p *program, prof *interp.Profile, entry int,
	cfg dynopt.Config, ar *ir.Arena) (replayRegion, *vliw.CompiledRegion) {
	stage := func(name string) int32 { return t.begin(name, cs, pid, laneReplay) }
	var rr replayRegion

	s := stage("region.Form")
	sb, err := region.Form(p.prog, prof, entry, cfg.Region)
	rr.formNs = t.end(s)
	if err != nil {
		return rr, nil
	}
	s = stage("xlate.TranslateArena")
	reg, err := xlate.TranslateArena(sb, ar)
	t.end(s)
	defer ar.Reset()
	if err != nil {
		return rr, nil
	}
	rr.entry, rr.sbInsts, rr.memOps, rr.irOps = entry, len(sb.Insts), sb.NumMemOps(), len(reg.Ops)
	rr.key = regionKey(sb, cfg)
	s = stage("alias.BuildTable")
	tbl := alias.BuildTable(reg, nil)
	t.end(s)
	s = stage("opt.Run")
	optRes := opt.Run(reg, tbl, optConfig(cfg))
	t.end(s)
	s = stage("deps.Compute")
	ds := deps.Compute(reg, tbl)
	opt.AddExtendedDeps(ds, reg, tbl, optRes)
	t.end(s)
	defer func() {
		tbl.Release()
		ds.Release()
		optRes.Release()
	}()
	// The sched span covers scheduling with alias register allocation,
	// dynopt's overflow retry ladder, and the working-set measurement it
	// records per region.
	s = stage("sched.Run")
	scfg := schedConfig(cfg)
	sc, err := sched.Run(reg, tbl, ds, scfg)
	if err != nil {
		// Alias register overflow: retry without speculation after clearing
		// the failed attempt's marks, then translate again and schedule
		// without the optimizer's eliminations.
		for _, o := range reg.Ops {
			o.AROffset, o.ARMask, o.P, o.C = -1, 0, false, false
		}
		scfg.ForceNonSpec = true
		sc, err = sched.Run(reg, tbl, ds, scfg)
		if err != nil {
			if reg, err = xlate.TranslateArena(sb, ar); err == nil {
				tbl.Release()
				ds.Release()
				tbl = alias.BuildTable(reg, nil)
				ds = deps.Compute(reg, tbl)
				sc, err = sched.Run(reg, tbl, ds, scfg)
			}
		}
	}
	if err == nil {
		rr.alloc, rr.working, rr.seqLen = sc.Alloc.Stats, core.MeasureWorkingSets(sc.Alloc, rr.memOps), len(sc.Seq)
	}
	t.end(s)
	if err != nil {
		return rr, nil
	}
	s = stage("ir.Freeze")
	fseq, freg := ir.Freeze(sc.Seq, reg)
	t.end(s)
	sc.Release()
	s = stage("vliw.Compile")
	cr := cfg.Machine.Compile(fseq, freg, len(sb.Insts))
	t.end(s)
	// dynopt stamps the checksum when a compile finishes and recomputes it,
	// with the structural checks, when it installs the result.
	s = stage("vliw.Checksum")
	stamp := cr.Checksum()
	if cr.Checksum() != stamp {
		err = errors.New("checksum is not deterministic")
	} else {
		err = cr.Validate()
	}
	t.end(s)
	if err != nil {
		return rr, nil
	}
	rr.codeBytes = cr.Bytes()
	return rr, cr
}

// regionKey content-hashes a superblock and the configuration bits that
// change its code, like dynopt's compile-cache key.
func regionKey(sb *region.Superblock, cfg dynopt.Config) codecache.Key {
	k := compilequeue.NewKey().Int(int64(sb.Entry)).Int(int64(sb.FinalTarget)).Int(int64(len(sb.Insts)))
	for i := range sb.Insts {
		in := &sb.Insts[i].Inst
		k = k.Int(int64(in.Op)).Int(int64(in.Rd)).Int(int64(in.Rs1)).Int(int64(in.Rs2)).Int(in.Imm).Int(int64(in.Target))
		k = k.Bool(sb.Insts[i].IsGuard)
	}
	return k.Int(int64(cfg.Mode)).Int(int64(cfg.NumAliasRegs)).Bool(cfg.StoreReorder)
}

// replayLookups fills a code cache with the replayed regions' keys and
// times hits on them; it returns ns per Lookup.
func replayLookups(t *tracer, pid int, keys []codecache.Key) float64 {
	if len(keys) == 0 {
		return 0
	}
	cache := codecache.New[int](codecache.Options{}, nil)
	for i, k := range keys {
		cache.Put(k, i)
	}
	s := t.begin("codecache.Lookup", -1, pid, laneReplay)
	for i := 0; i < lookupIters; i++ {
		cache.Lookup(keys[i%len(keys)])
	}
	return float64(t.end(s)) / lookupIters
}

// recon accumulates the traced pass's Stats counts and the reconciliation
// of each job's run time against the replayed unit costs.
type recon struct {
	jobs                                                          int
	interpInsts, guestInsts, commits, dispatches, rollbacks       int64
	compiles, overflow, hwChecks                                  int64
	regions, sbInsts, memOps, checks, antis, amovs, shapeMismatch int64
	refNs, interpNs, compileNs, execNs, fixedNs, syncCompileNs    float64
	lookups, hits, cacheCompiles, contention                      int64
	fleetJobs                                                     int
	effSum, skewSum                                               float64
	runMs                                                         []float64
	jobInsts                                                      int64
}

// tenant adds one System's counts and returns its modelled compile ns.
func (a *recon) tenant(st *dynopt.Stats, c *pairCosts) float64 {
	rb := st.GuardFails + st.AliasExceptions + st.Faults
	compiles := int64(st.RegionsCompiled + st.Recompiles)
	// A recompile reuses the region's superblock: it skips region.Form.
	compileNs := c.compileNs*float64(st.RegionsCompiled) + (c.compileNs-c.formNs)*float64(st.Recompiles)
	a.interpInsts += st.InterpretedInsts
	a.guestInsts += st.GuestInsts
	a.commits += st.Commits
	a.dispatches += st.Commits + rb
	a.rollbacks += rb
	a.compiles += compiles
	a.overflow += int64(st.OverflowRetries)
	a.hwChecks += int64(st.HWChecks)
	for i := range st.Regions {
		rs := &st.Regions[i]
		a.regions++
		a.sbInsts += int64(rs.GuestInsts)
		a.memOps += int64(rs.MemOps)
		a.checks += int64(rs.Alloc.Checks)
		a.antis += int64(rs.Alloc.Antis)
		a.amovs += int64(rs.Alloc.AMovs)
		// A region compiled once at full speculation must match the
		// replay's compile outputs too; recompiles add blacklists, pins
		// and lower tiers the replay does not model.
		exact := st.Recompiles == 0 && rs.Tier == dynopt.TierFull
		if !replayed(c.regions, rs, exact) {
			a.shapeMismatch++
		}
	}
	a.interpNs += c.interpNsPerInst * float64(st.InterpretedInsts)
	a.execNs += c.execNsPerInst*float64(st.GuestInsts-st.InterpretedInsts) + c.rollbackNs*float64(rb)
	a.fixedNs += c.memNs + c.decodeNs
	a.compileNs += compileNs
	return compileNs
}

// replayed reports whether the replay formed rs's superblock with the
// same size and memory-op count and, when exact, compiled it to the same
// allocation stats, working sets and sequence length.
func replayed(regions []replayRegion, rs *dynopt.RegionStats, exact bool) bool {
	for _, rr := range regions {
		if rr.entry == rs.Entry {
			return rr.sbInsts == rs.GuestInsts && rr.memOps == rs.MemOps &&
				(!exact || rr.alloc == rs.Alloc && rr.working == rs.Working && rr.seqLen == rs.SeqLen)
		}
	}
	return false
}

// add prices every job of a traced repetition that passed its check.
func (a *recon) add(d *repData) {
	for i := range d.jobs {
		tj := &d.jobs[i]
		switch {
		case !tj.ok:
			continue
		case tj.fleet == nil:
			a.jobs++
			a.syncCompileNs += a.tenant(&tj.stats, d.costs[tj.key])
			a.refNs += tj.runNs
		default:
			a.fleet(tj.fleet, d.costs, d.solo)
		}
		a.runMs = append(a.runMs, tj.runNs/1e6)
		a.jobInsts += tj.insts
	}
}

// fleet adds a fleet job. Its compiles run on the shared worker, so they
// are priced (compile_share) but not subtracted from the tenants' time;
// the residual includes the time tenants wait on compiles.
func (a *recon) fleet(res *harness.FleetResult, costs map[string]*pairCosts, solo map[string]time.Duration) {
	a.jobs++
	a.fleetJobs++
	lo, hi := res.Tenants[0].Wall, res.Tenants[0].Wall
	var soloSum time.Duration
	for i := range res.Tenants {
		ft := &res.Tenants[i]
		a.tenant(&ft.Stats, costs[pairKey(ft.Bench, res.Config)])
		a.refNs += float64(ft.Wall)
		lo, hi = min(lo, ft.Wall), max(hi, ft.Wall)
		soloSum += solo[ft.Bench]
	}
	a.lookups += res.Cache.Lookups
	a.hits += res.Cache.Hits
	a.cacheCompiles += res.Cache.Compiles
	a.contention += res.Cache.Contention
	cores := min(len(res.Tenants), runtime.NumCPU())
	a.effSum += float64(soloSum) / (float64(cores) * float64(res.Wall))
	a.skewSum += float64(hi-lo) / float64(res.Wall)
}

func ratio(x, y float64) float64 {
	if y == 0 {
		return 0
	}
	return x / y
}

// metrics fills m with the Stats counts and the reconciliation.
func (a *recon) metrics(m map[string]float64) {
	jobs := float64(a.jobs)
	busyMs := 0.0
	for _, ms := range a.runMs {
		busyMs += ms
	}
	sort.Float64s(a.runMs)
	m["job.guest_mips"] = ratio(float64(a.jobInsts)/1e3, busyMs)
	m["job.run_ms_p50"] = percentile(a.runMs, 0.5)
	m["job.run_ms_p95"] = percentile(a.runMs, 0.95)
	m["interp.insts_per_run"] = ratio(float64(a.interpInsts), jobs)
	m["region.sb_insts"] = ratio(float64(a.sbInsts), float64(a.regions))
	m["alias.memops"] = ratio(float64(a.memOps), float64(a.regions))
	m["sched.overflow_retry_ratio"] = ratio(float64(a.overflow), float64(a.compiles))
	m["core.checks_per_memop"] = ratio(float64(a.checks), float64(a.memOps))
	m["core.antis_per_memop"] = ratio(float64(a.antis), float64(a.memOps))
	m["core.amovs_per_region"] = ratio(float64(a.amovs), float64(a.regions))
	m["vliw.commit_ratio"] = ratio(float64(a.commits), float64(a.dispatches))
	m["aliashw.checks_per_kinst"] = ratio(1000*float64(a.hwChecks), float64(a.guestInsts))
	m["dynopt.rollbacks_per_run"] = ratio(float64(a.rollbacks), jobs)
	m["dynopt.compiles_per_run"] = ratio(float64(a.compiles), jobs)
	m["dynopt.dispatches_per_run"] = ratio(float64(a.dispatches), jobs)
	m["codecache.hit_ratio"] = ratio(float64(a.hits), float64(a.lookups))
	m["codecache.dedupe_pct"] = 100 * ratio(float64(a.lookups-a.cacheCompiles), float64(a.lookups))
	m["codecache.contention_per_lookup"] = ratio(float64(a.contention), float64(a.lookups))
	m["harness.fleet_scaling_eff"] = ratio(a.effSum, float64(a.fleetJobs))
	m["harness.tenant_wall_skew"] = ratio(a.skewSum, float64(a.fleetJobs))
	m["dynopt.interp_share"] = ratio(a.interpNs, a.refNs)
	m["dynopt.compile_share"] = ratio(a.compileNs, a.refNs)
	m["dynopt.exec_share"] = ratio(a.execNs, a.refNs)
	m["dynopt.unattributed_frac"] = 1 - ratio(a.interpNs+a.execNs+a.fixedNs+a.syncCompileNs, a.refNs)
	m["replay.shape_mismatch"] = ratio(float64(a.shapeMismatch), float64(a.regions))
}

// spanMetrics fills m with the replay's unit costs: self times of its
// spans, and the in-place region-entry timings.
func spanMetrics(m map[string]float64, spans []span, costs map[string]*pairCosts) {
	self := selfTimes(spans)
	sum := make(map[string]float64)
	count := make(map[string]float64)
	for i, s := range spans {
		sum[s.name] += float64(self[i])
		count[s.name]++
	}
	for _, cs := range compileStages {
		m[cs.metric] = ratio(sum[cs.span], count[cs.span]) / 1e3
	}
	m["guest.memory_us"] = ratio(sum["guest.NewMemory"], count["guest.NewMemory"]*allocIters) / 1e3
	m["interp.decode_us"] = ratio(sum["interp.New"], count["interp.New"]*allocIters) / 1e3
	m["aliashw.reset_ns"] = ratio(sum["aliashw.Reset"], count["aliashw.Reset"]*resetIters)
	m["atomic.rollback_ns"] = ratio(sum["atomic.Rollback"], count["atomic.Rollback"]*rollbackIters)
	// The job span's self time is what tracing adds around each run.
	m["trace.overhead_frac"] = ratio(sum["job"], sum["dynopt.run"]+sum["harness.RunFleet"])

	var interpInsts, execNs, execInsts, execEntries, irOps, codeBytes, nreg float64
	for _, c := range costs {
		interpInsts += float64(c.interpInsts)
		execNs += float64(c.execNs)
		execInsts += float64(c.execInsts)
		execEntries += float64(c.execEntries)
		for _, rr := range c.regions {
			irOps += float64(rr.irOps)
			codeBytes += float64(rr.codeBytes)
			nreg++
		}
	}
	m["interp.ns_per_inst"] = ratio(sum["interp.RunBlock"], interpInsts)
	m["vliw.exec_ns_per_entry"] = ratio(execNs, execEntries)
	m["vliw.exec_ns_per_inst"] = ratio(execNs, execInsts)
	m["xlate.ir_ops"] = ratio(irOps, nreg)
	m["vliw.code_bytes"] = ratio(codeBytes, nreg)
}
