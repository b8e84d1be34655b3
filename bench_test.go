// Benchmarks that regenerate the paper's tables and figures (one bench per
// experiment, reporting the headline statistic as a custom metric) plus
// micro-benchmarks of the core components.
//
//	go test -bench=. -benchmem
package smarq_test

import (
	"fmt"
	"math/rand"
	"testing"

	"smarq"
	"smarq/internal/alias"
	"smarq/internal/aliashw"
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
	"smarq/internal/workload"
	"smarq/internal/xlate"
)

// --- Experiment regeneration benches (Tables 1-2, Figures 14-19) ---

func BenchmarkTable1Probes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2MachineModel(b *testing.B) {
	cfg := vliw.DefaultConfig()
	ops := figureSeq()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cfg.CycleCount(ops, 256)
	}
}

func BenchmarkFigure14SuperblockSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(d.Max["ammp"]), "ammp-max-memops")
	}
}

func BenchmarkFigure15Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Figure15()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.Mean[harness.CfgSMARQ64], "smarq64-speedup")
		b.ReportMetric(d.Mean[harness.CfgSMARQ16], "smarq16-speedup")
		b.ReportMetric(d.Mean[harness.CfgALAT], "itanium-speedup")
	}
}

func BenchmarkFigure16StoreReorder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Figure16()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*d.Impact["mesa"], "mesa-impact-pct")
		b.ReportMetric(100*d.Mean, "mean-impact-pct")
	}
}

func BenchmarkFigure17WorkingSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Figure17()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.MeanSMARQ, "smarq-normalized-ws")
		b.ReportMetric(d.MeanLowerBound, "lower-bound")
	}
}

func BenchmarkFigure18Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Figure18()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*d.MeanOptPct, "overhead-pct")
		b.ReportMetric(100*d.MeanSchedShare, "sched-share-pct")
	}
}

func BenchmarkFigure19Constraints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Figure19()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.MeanChecks, "checks-per-memop")
		b.ReportMetric(d.MeanAntis, "antis-per-memop")
	}
}

func BenchmarkScalingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.ScalingSweep([]int{16, 64})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.Mean[64]/d.Mean[16], "gain-64-over-16")
	}
}

// --- End-to-end benches: one full system run per suite benchmark ---

func BenchmarkEndToEnd(b *testing.B) {
	for _, bm := range workload.Suite() {
		b.Run(bm.Name, func(b *testing.B) {
			var cycles int64
			var insts int64
			for i := 0; i < b.N; i++ {
				sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), dynopt.ConfigSMARQ(64))
				if _, err := sys.Run(bm.MaxInsts); err != nil {
					b.Fatal(err)
				}
				cycles = sys.Stats.TotalCycles
				insts = sys.Stats.GuestInsts
			}
			b.ReportMetric(float64(cycles)/float64(insts), "cpi")
			b.ReportMetric(float64(insts), "guest-insts")
		})
	}
}

// --- Micro-benchmarks of the core components ---

// figureSeq builds a representative scheduled sequence for machine-model
// micro-benchmarks.
func figureSeq() []*ir.Op {
	var seq []*ir.Op
	v := ir.VReg(64)
	for i := 0; i < 64; i++ {
		switch i % 4 {
		case 0:
			seq = append(seq, &ir.Op{ID: i, Kind: ir.Load, GOp: guest.Ld8, Dst: v,
				Srcs: []ir.VReg{1}, SrcFloat: []bool{false},
				Mem: &ir.MemInfo{Base: 1, Size: 8}, AROffset: -1})
		case 1, 2:
			seq = append(seq, &ir.Op{ID: i, Kind: ir.Arith, GOp: guest.Addi, Dst: v + 1,
				Srcs: []ir.VReg{v}, SrcFloat: []bool{false}, AROffset: -1})
		default:
			seq = append(seq, &ir.Op{ID: i, Kind: ir.Store, GOp: guest.St8, Dst: ir.NoVReg,
				Srcs: []ir.VReg{v, 2}, SrcFloat: []bool{false, false},
				Mem: &ir.MemInfo{Base: 2, Size: 8}, AROffset: -1})
		}
		v += 2
	}
	return seq
}

// BenchmarkAllocator measures the SMARQ allocation algorithm itself — the
// cost the paper's Figure 18 bounds (it must be cheap enough to run at
// translation time).
func BenchmarkAllocator(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	kinds := make([]byte, n)
	for i := range kinds {
		kinds[i] = "LSa"[rng.Intn(3)]
	}
	ops := make([]*ir.Op, n)
	for i, k := range kinds {
		o := &ir.Op{ID: i, Dst: ir.NoVReg, AROffset: -1}
		switch k {
		case 'L':
			o.Kind = ir.Load
			o.GOp = guest.Ld8
			o.Mem = &ir.MemInfo{Size: 8}
		case 'S':
			o.Kind = ir.Store
			o.GOp = guest.St8
			o.Mem = &ir.MemInfo{Size: 8}
		default:
			o.Kind = ir.Arith
		}
		ops[i] = o
	}
	ds := deps.NewSet()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ops[i].IsMem() && ops[j].IsMem() &&
				(ops[i].Kind == ir.Store || ops[j].Kind == ir.Store) && rng.Intn(4) == 0 {
				ds.Add(deps.Dep{Src: i, Dst: j, Rel: alias.MayAlias,
					SrcIsStore: ops[i].Kind == ir.Store, DstIsStore: ops[j].Kind == ir.Store})
			}
		}
	}
	schedule := rng.Perm(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			op.AROffset = -1
			op.P, op.C = false, false
		}
		if _, err := core.AllocateSequence(ops, schedule, ds, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderedQueueOnMem(b *testing.B) {
	q := aliashw.NewOrderedQueue(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.OnMem(1, false, true, false, i%32, 0, uint64(i*8), uint64(i*8+8))
		q.OnMem(2, true, false, true, i%32, 0, uint64(i*8+4), uint64(i*8+12))
		q.Rotate(1)
	}
}

func BenchmarkALATOnMem(b *testing.B) {
	a := aliashw.NewALAT()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.OnMem(1, false, true, false, 0, 0, uint64(i*8), uint64(i*8+8))
		a.OnMem(2, true, false, false, -1, 0, 4096, 4104)
		if i%16 == 15 {
			a.Reset()
		}
	}
}

// BenchmarkInterpreter measures the pre-decoded engine's steady-state
// dispatch rate per workload: the program is decoded once up front and
// the same Interpreter replays 100k-instruction runs, so an iteration is
// pure threaded dispatch at zero heap allocations (the allocs_per_op
// figure is pinned exactly by bench-check).
func BenchmarkInterpreter(b *testing.B) {
	for _, name := range []string{"swim", "equake", "ammp"} {
		b.Run(name, func(b *testing.B) {
			bm, _ := workload.ByName(name)
			st := &guest.State{}
			mem := guest.NewMemory(bm.MemSize)
			it := interp.New(bm.Build(), st, mem)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				*st = guest.State{}
				mem.Zero()
				it.Reset()
				if _, err := it.Run(0, 100_000); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(it.DynInsts))
			}
		})
	}
}

// BenchmarkTranslatePipeline measures region formation through scheduling
// — the full translation path the runtime pays per hot region.
func BenchmarkTranslatePipeline(b *testing.B) {
	bm, _ := workload.ByName("ammp")
	prog := bm.Build()
	it := interp.New(prog, &guest.State{}, guest.NewMemory(bm.MemSize))
	_, _ = it.Run(0, 500_000)
	best, bc := 0, uint64(0)
	for id, c := range it.Prof.BlockCounts {
		if c > bc {
			best, bc = id, c
		}
	}
	machine := vliw.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb, err := region.Form(prog, it.Prof, best, region.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		reg, err := xlate.Translate(sb)
		if err != nil {
			b.Fatal(err)
		}
		tbl := alias.BuildTable(reg, nil)
		optRes := opt.Run(reg, tbl, opt.Config{LoadElim: true, StoreElim: true, Speculative: true})
		ds := deps.Compute(reg, tbl)
		opt.AddExtendedDeps(ds, reg, tbl, optRes)
		if _, err := sched.Run(reg, tbl, ds, sched.Config{
			Mode: sched.HWOrdered, NumAliasRegs: 64, StoreReorder: true,
			PressureMargin: 4, Machine: machine,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompilePipeline measures one full compilation — translation,
// alias analysis, eliminations, dependences, scheduling with alias
// register allocation, VLIW baking and the working-set statistics — over
// the hottest ammp superblock, with region formation excluded (production
// caches superblocks per entry). This is the per-compile cost the
// flat-arena pipeline targets; BenchmarkCompile above measures the same
// machinery embedded in a full system run.
func BenchmarkCompilePipeline(b *testing.B) {
	bm, _ := workload.ByName("ammp")
	prog := bm.Build()
	it := interp.New(prog, &guest.State{}, guest.NewMemory(bm.MemSize))
	_, _ = it.Run(0, 500_000)
	best, bc := 0, uint64(0)
	for id, c := range it.Prof.BlockCounts {
		if c > bc {
			best, bc = id, c
		}
	}
	sb, err := region.Form(prog, it.Prof, best, region.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	machine := vliw.DefaultConfig()
	scfg := sched.Config{
		Mode: sched.HWOrdered, NumAliasRegs: 64, StoreReorder: true,
		PressureMargin: 4, Machine: machine,
	}
	arena := ir.NewArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg, err := xlate.TranslateArena(sb, arena)
		if err != nil {
			b.Fatal(err)
		}
		tbl := alias.BuildTable(reg, nil)
		optRes := opt.Run(reg, tbl, opt.Config{LoadElim: true, StoreElim: true, Speculative: true})
		ds := deps.Compute(reg, tbl)
		opt.AddExtendedDeps(ds, reg, tbl, optRes)
		sc, err := sched.Run(reg, tbl, ds, scfg)
		if err != nil {
			b.Fatal(err)
		}
		fseq, freg := ir.Freeze(sc.Seq, reg)
		cr := machine.Compile(fseq, freg, len(sb.Insts))
		ws := core.MeasureWorkingSets(sc.Alloc, sb.NumMemOps())
		tbl.Release()
		ds.Release()
		optRes.Release()
		sc.Release()
		arena.Reset()
		if cr.Cycles == 0 || ws.SMARQ == 0 {
			b.Fatal("degenerate compile")
		}
	}
}

// benchLoopRegion compiles the store/load loop the execution benches run,
// scheduled for the given hardware mode, and returns an entry-ready state.
func benchLoopRegion(b *testing.B, mode sched.HWMode, nar int) (*vliw.CompiledRegion, *guest.State, *guest.Memory) {
	b.Helper()
	bb := smarq.NewBuilder()
	bb.NewBlock()
	bb.Li(1, 1024)
	bb.Li(2, 4096)
	bb.Li(3, 0)
	bb.Li(4, 1<<30)
	loop := bb.NewBlock()
	bb.St8(1, 0, 5)
	bb.Ld8(6, 2, 0)
	bb.Addi(5, 6, 3)
	bb.Addi(3, 3, 1)
	bb.Blt(3, 4, loop)
	bb.NewBlock()
	bb.Halt()
	prog := bb.MustProgram()

	st := &guest.State{}
	mem := guest.NewMemory(1 << 16)
	it := interp.New(prog, st, mem)
	if _, err := it.Run(0, 10_000); err != nil {
		b.Fatal(err)
	}
	sb, err := region.Form(prog, it.Prof, 1, region.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	reg, err := xlate.Translate(sb)
	if err != nil {
		b.Fatal(err)
	}
	tbl := alias.BuildTable(reg, nil)
	ds := deps.Compute(reg, tbl)
	machine := vliw.DefaultConfig()
	sc, err := sched.Run(reg, tbl, ds, sched.Config{
		Mode: mode, NumAliasRegs: nar, StoreReorder: true,
		PressureMargin: 4, Machine: machine,
	})
	if err != nil {
		b.Fatal(err)
	}
	return machine.Compile(sc.Seq, reg, len(sb.Insts)), st, mem
}

// BenchmarkRegionExecution measures the VLIW execution engine on the
// SMARQ configuration — the headline region-throughput number the perf
// regression gate tracks.
func BenchmarkRegionExecution(b *testing.B) {
	cr, st, mem := benchLoopRegion(b, sched.HWOrdered, 64)
	det := aliashw.NewOrderedQueue(64)
	var ctx vliw.ExecContext
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ctx.Execute(cr, st, mem, det)
		if res.Outcome != vliw.Commit {
			b.Fatalf("outcome %s", res.Outcome)
		}
	}
}

// BenchmarkExecute runs the same region entry under every alias-hardware
// fast path of the devirtualized execute loop.
func BenchmarkExecute(b *testing.B) {
	cases := []struct {
		name string
		mode sched.HWMode
		nar  int
		det  func() aliashw.Detector
	}{
		{"ordered64", sched.HWOrdered, 64, func() aliashw.Detector { return aliashw.NewOrderedQueue(64) }},
		{"alat", sched.HWALAT, 64, func() aliashw.Detector { return aliashw.NewALAT() }},
		{"bitmask15", sched.HWBitmask, 15, func() aliashw.Detector { return aliashw.NewBitmask(15) }},
		{"none", sched.HWNone, 64, func() aliashw.Detector { return aliashw.None{} }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cr, st, mem := benchLoopRegion(b, c.mode, c.nar)
			det := c.det()
			var ctx vliw.ExecContext
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := ctx.Execute(cr, st, mem, det)
				if res.Outcome != vliw.Commit {
					b.Fatalf("outcome %s", res.Outcome)
				}
			}
		})
	}
}

// BenchmarkDynopt measures a full dynamic-optimization system run — the
// interpreter, translation pipeline, and pooled region execution together
// — on a short swim slice.
func BenchmarkDynopt(b *testing.B) {
	bm, _ := workload.ByName("swim")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), dynopt.ConfigSMARQ(64))
		if _, err := sys.Run(100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile runs the BenchmarkDynopt swim slice with the
// background-compilation path on (one worker, then with content-hash
// memoization), so the enqueue/install machinery and memo table sit on
// the same regression trend line as the synchronous baseline.
func BenchmarkCompile(b *testing.B) {
	bm, _ := workload.ByName("swim")
	for _, c := range []struct {
		name    string
		memoize bool
	}{{"workers1", false}, {"memoized", true}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := dynopt.ConfigSMARQ(64)
			cfg.Compile.Workers = 1
			cfg.Compile.Memoize = c.memoize
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
				if _, err := sys.Run(100_000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMemoHit measures the path a memoized recompile takes instead
// of the full pipeline of BenchmarkTranslatePipeline: the canonical
// content-hash fold over the hot superblock plus the table lookup.
func BenchmarkMemoHit(b *testing.B) {
	bm, _ := workload.ByName("ammp")
	prog := bm.Build()
	it := interp.New(prog, &guest.State{}, guest.NewMemory(bm.MemSize))
	_, _ = it.Run(0, 500_000)
	best, bc := 0, uint64(0)
	for id, c := range it.Prof.BlockCounts {
		if c > bc {
			best, bc = id, c
		}
	}
	sb, err := region.Form(prog, it.Prof, best, region.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	key := func() compilequeue.Key {
		k := compilequeue.NewKey()
		k = k.Int(int64(sb.Entry)).Int(int64(sb.FinalTarget)).Int(int64(sb.UnrollFactor))
		for i := range sb.Insts {
			gi := &sb.Insts[i]
			k = k.Int(int64(gi.Inst.Op)).Int(int64(gi.Inst.Rd)).Int(int64(gi.Inst.Rs1)).Int(int64(gi.Inst.Rs2))
			k = k.Int(gi.Inst.Imm).Int(int64(gi.Inst.Target)).Bool(gi.IsGuard)
		}
		return k
	}
	// A private one-shard cache, as a memoizing System holds.
	memo := codecache.New[*vliw.CompiledRegion](codecache.Options{Shards: 1}, nil)
	memo.Put(key(), &vliw.CompiledRegion{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := memo.Get(key()); !ok {
			b.Fatal("memo miss")
		}
	}
}

// BenchmarkFleet measures concurrent multi-tenant throughput over the
// shared compile pool and sharded code cache: N identical swim tenants on
// their own goroutines, one shared 2-worker pool, one shared cache. The
// headline metrics are aggregate regions/sec (tenants4 vs tenants1 is the
// fleet-scaling gate on a multi-core host) and dedupe-pct — the share of
// would-be duplicate compiles the shared cache eliminated, deterministically
// 100 for identical tenants (every unique key compiles exactly once
// fleet-wide), which the bench-check baseline pins exactly.
func BenchmarkFleet(b *testing.B) {
	const workers = 2
	const maxInsts = 100_000
	solo, err := harness.RunFleet(harness.FleetConfig{
		Tenants: 1, Mix: []string{"swim"}, CompileWorkers: workers, MaxInsts: maxInsts,
	})
	if err != nil {
		b.Fatal(err)
	}
	// The solo run's compile count is the unique-key population; with n
	// identical tenants, n× that many compiles would run without sharing.
	c1 := solo.Cache.Compiles
	if c1 == 0 {
		b.Fatal("solo fleet run compiled nothing")
	}
	for _, tenants := range []int{1, 4} {
		b.Run(fmt.Sprintf("tenants%d", tenants), func(b *testing.B) {
			var commits, insts, compiles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := harness.RunFleet(harness.FleetConfig{
					Tenants: tenants, Mix: []string{"swim"},
					CompileWorkers: workers, MaxInsts: maxInsts,
				})
				if err != nil {
					b.Fatal(err)
				}
				commits += res.Commits()
				insts += res.GuestInsts()
				compiles += res.Cache.Compiles
			}
			secs := b.Elapsed().Seconds()
			if secs <= 0 {
				secs = 1e-9
			}
			b.ReportMetric(float64(commits)/secs, "regions/s")
			b.ReportMetric(float64(insts)/secs, "guest-insts/s")
			if tenants > 1 {
				avoided := float64(int64(tenants)*c1*int64(b.N) - compiles)
				dup := float64((int64(tenants) - 1) * c1 * int64(b.N))
				b.ReportMetric(100*avoided/dup, "dedupe-pct")
			}
		})
	}
}

// BenchmarkFleetColdStart measures time-to-all-halted for a cold fleet:
// every tenant starts with an empty code cache, so the budgeted run is
// dominated by interpretation until regions warm up — exactly the window
// the pre-decoded engine targets. At 8 tenants the interpreter runs on
// every core at once, so a faster cold path compounds across the fleet.
func BenchmarkFleetColdStart(b *testing.B) {
	const maxInsts = 200_000
	for _, tenants := range []int{1, 8} {
		b.Run(fmt.Sprintf("tenants%d", tenants), func(b *testing.B) {
			var insts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := harness.RunFleet(harness.FleetConfig{
					Tenants: tenants, Mix: []string{"swim", "equake", "ammp"},
					CompileWorkers: 2, MaxInsts: maxInsts,
				})
				if err != nil {
					b.Fatal(err)
				}
				insts += res.GuestInsts()
			}
			secs := b.Elapsed().Seconds()
			if secs <= 0 {
				secs = 1e-9
			}
			b.ReportMetric(float64(insts)/secs, "guest-insts/s")
		})
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Ablations()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*d.MeanSlowdown[harness.AblNoAnti], "no-anti-slowdown-pct")
		b.ReportMetric(100*d.MeanSlowdown[harness.AblNoElim], "no-elim-slowdown-pct")
	}
}

func BenchmarkUnrollSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.UnrollSweep([]int{1, 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.Mean[2]/d.Mean[1], "gain-x2-over-x1")
		b.ReportMetric(float64(d.MaxWS[2]), "max-working-set-x2")
	}
}

func BenchmarkEfficeonCompare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Efficeon()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.Mean[harness.CfgEfficeon], "efficeon-speedup")
		b.ReportMetric(d.Mean[harness.CfgEfficeon]/d.Mean[harness.CfgSMARQ16], "efficeon-over-smarq16")
	}
}

func BenchmarkEnergyChecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := harness.NewRunner(nil)
		d, err := r.Energy()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(d.Mean[harness.CfgSMARQ64], "smarq-checks-per-kinst")
		b.ReportMetric(d.Mean[harness.CfgALAT], "alat-checks-per-kinst")
	}
}
