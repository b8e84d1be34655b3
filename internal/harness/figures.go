package harness

import (
	"fmt"
	"strings"

	"smarq/internal/dynopt"
	"smarq/internal/health"
)

// Figure15Data reproduces Figure 15: speedup of each alias-detection
// scheme over the no-alias-hardware baseline.
type Figure15Data struct {
	Benches []string
	// Speedup[bench][config] = cycles(nohw)/cycles(config).
	Speedup map[string]map[string]float64
	// Mean[config] is the geometric mean speedup.
	Mean map[string]float64
}

// Figure15 runs the suite under SMARQ-64, SMARQ-16 and the Itanium-like
// model, each normalized to the no-hardware baseline.
func (r *Runner) Figure15() (*Figure15Data, error) {
	configs := []string{CfgSMARQ64, CfgSMARQ16, CfgALAT}
	d := &Figure15Data{
		Benches: r.benchNames(),
		Speedup: make(map[string]map[string]float64),
		Mean:    make(map[string]float64),
	}
	r.Warm(crossCells(d.Benches, append([]string{CfgNoHW}, configs...)))
	perCfg := map[string][]float64{}
	for _, bench := range d.Benches {
		base, err := r.Run(bench, CfgNoHW)
		if err != nil {
			return nil, err
		}
		d.Speedup[bench] = make(map[string]float64)
		for _, cfg := range configs {
			st, err := r.Run(bench, cfg)
			if err != nil {
				return nil, err
			}
			sp := float64(base.TotalCycles) / float64(st.TotalCycles)
			d.Speedup[bench][cfg] = sp
			perCfg[cfg] = append(perCfg[cfg], sp)
		}
	}
	for cfg, sps := range perCfg {
		d.Mean[cfg] = geomean(sps)
	}
	return d, nil
}

// Render formats the figure as a table.
func (d *Figure15Data) Render() string {
	rows := make([][]string, 0, len(d.Benches)+1)
	for _, b := range d.Benches {
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%.3f", d.Speedup[b][CfgSMARQ64]),
			fmt.Sprintf("%.3f", d.Speedup[b][CfgSMARQ16]),
			fmt.Sprintf("%.3f", d.Speedup[b][CfgALAT]),
		})
	}
	rows = append(rows, []string{
		"geomean",
		fmt.Sprintf("%.3f", d.Mean[CfgSMARQ64]),
		fmt.Sprintf("%.3f", d.Mean[CfgSMARQ16]),
		fmt.Sprintf("%.3f", d.Mean[CfgALAT]),
	})
	return "Figure 15: speedup over no-alias-HW baseline\n" +
		table([]string{"benchmark", "SMARQ(64)", "SMARQ16", "Itanium-like"}, rows)
}

// Figure16Data reproduces Figure 16: the performance impact of disabling
// speculative store reordering under SMARQ-64.
type Figure16Data struct {
	Benches []string
	// Impact[bench] = cycles(no-store-reorder)/cycles(smarq64) - 1:
	// positive means store reordering helps.
	Impact map[string]float64
	Mean   float64
}

// Figure16 measures store-reordering impact.
func (r *Runner) Figure16() (*Figure16Data, error) {
	d := &Figure16Data{Benches: r.benchNames(), Impact: map[string]float64{}}
	r.Warm(crossCells(d.Benches, []string{CfgSMARQ64, CfgNoStRe}))
	var ratios []float64
	for _, bench := range d.Benches {
		with, err := r.Run(bench, CfgSMARQ64)
		if err != nil {
			return nil, err
		}
		without, err := r.Run(bench, CfgNoStRe)
		if err != nil {
			return nil, err
		}
		ratio := float64(without.TotalCycles) / float64(with.TotalCycles)
		d.Impact[bench] = ratio - 1
		ratios = append(ratios, ratio)
	}
	d.Mean = geomean(ratios) - 1
	return d, nil
}

// Render formats the figure.
func (d *Figure16Data) Render() string {
	rows := make([][]string, 0, len(d.Benches)+1)
	for _, b := range d.Benches {
		rows = append(rows, []string{b, fmt.Sprintf("%+.2f%%", 100*d.Impact[b])})
	}
	rows = append(rows, []string{"geomean", fmt.Sprintf("%+.2f%%", 100*d.Mean)})
	return "Figure 16: slowdown from disabling store reordering (SMARQ-64)\n" +
		table([]string{"benchmark", "impact"}, rows)
}

// Figure14Data reproduces Figure 14: memory operations per superblock.
type Figure14Data struct {
	Benches []string
	// Avg and Max memory ops per compiled superblock.
	Avg map[string]float64
	Max map[string]int
}

// Figure14 collects superblock sizes from the SMARQ-64 runs.
func (r *Runner) Figure14() (*Figure14Data, error) {
	d := &Figure14Data{Benches: r.benchNames(), Avg: map[string]float64{}, Max: map[string]int{}}
	r.Warm(crossCells(d.Benches, []string{CfgSMARQ64}))
	for _, bench := range d.Benches {
		st, err := r.Run(bench, CfgSMARQ64)
		if err != nil {
			return nil, err
		}
		total, max := 0, 0
		for _, reg := range st.Regions {
			total += reg.MemOps
			if reg.MemOps > max {
				max = reg.MemOps
			}
		}
		if n := len(st.Regions); n > 0 {
			d.Avg[bench] = float64(total) / float64(n)
		}
		d.Max[bench] = max
	}
	return d, nil
}

// Render formats the figure.
func (d *Figure14Data) Render() string {
	rows := make([][]string, 0, len(d.Benches))
	for _, b := range d.Benches {
		rows = append(rows, []string{b, fmt.Sprintf("%.1f", d.Avg[b]), fmt.Sprintf("%d", d.Max[b])})
	}
	return "Figure 14: memory operations per superblock\n" +
		table([]string{"benchmark", "avg", "max"}, rows)
}

// Figure17Data reproduces Figure 17: the alias register working set under
// four allocation policies, normalized to one register per memory
// operation in program order.
type Figure17Data struct {
	Benches []string
	// Normalized working sets per benchmark: PBitOnly, SMARQ, LowerBound
	// (ProgramOrder is the normalizer, 1.0).
	PBitOnly, SMARQ, LowerBound map[string]float64
	// Means across the suite.
	MeanPBitOnly, MeanSMARQ, MeanLowerBound float64
}

// Figure17 aggregates the allocator's working-set statistics over every
// compiled superblock of the SMARQ-64 runs, weighting by memory
// operations as the paper does ("normalized to the number of memory
// operations averaged over all the superblocks").
func (r *Runner) Figure17() (*Figure17Data, error) {
	d := &Figure17Data{
		Benches:  r.benchNames(),
		PBitOnly: map[string]float64{}, SMARQ: map[string]float64{}, LowerBound: map[string]float64{},
	}
	r.Warm(crossCells(d.Benches, []string{CfgSMARQ64}))
	var allP, allS, allL []float64
	for _, bench := range d.Benches {
		st, err := r.Run(bench, CfgSMARQ64)
		if err != nil {
			return nil, err
		}
		var mem, pb, sq, lb int
		for _, reg := range st.Regions {
			mem += reg.Working.ProgramOrder
			pb += reg.Working.PBitOnly
			sq += reg.Working.SMARQ
			lb += reg.Working.LowerBound
		}
		if mem == 0 {
			continue
		}
		d.PBitOnly[bench] = float64(pb) / float64(mem)
		d.SMARQ[bench] = float64(sq) / float64(mem)
		d.LowerBound[bench] = float64(lb) / float64(mem)
		allP = append(allP, d.PBitOnly[bench])
		allS = append(allS, d.SMARQ[bench])
		allL = append(allL, d.LowerBound[bench])
	}
	d.MeanPBitOnly = mean(allP)
	d.MeanSMARQ = mean(allS)
	d.MeanLowerBound = mean(allL)
	return d, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Render formats the figure.
func (d *Figure17Data) Render() string {
	rows := make([][]string, 0, len(d.Benches)+1)
	for _, b := range d.Benches {
		rows = append(rows, []string{
			b, "1.000",
			fmt.Sprintf("%.3f", d.PBitOnly[b]),
			fmt.Sprintf("%.3f", d.SMARQ[b]),
			fmt.Sprintf("%.3f", d.LowerBound[b]),
		})
	}
	rows = append(rows, []string{
		"mean", "1.000",
		fmt.Sprintf("%.3f", d.MeanPBitOnly),
		fmt.Sprintf("%.3f", d.MeanSMARQ),
		fmt.Sprintf("%.3f", d.MeanLowerBound),
	})
	return "Figure 17: alias register working set (normalized to program-order allocation)\n" +
		table([]string{"benchmark", "prog-order", "P-bit-only", "SMARQ", "lower-bound"}, rows)
}

// Figure18Data reproduces Figure 18: the optimizer's own execution time as
// a fraction of total execution, and the share spent in scheduling.
type Figure18Data struct {
	Benches []string
	// OptPct[bench]: (opt+sched cycles)/total; SchedShare: sched/(opt+sched).
	OptPct, SchedShare map[string]float64
	// Amortized100 extrapolates the overhead to a run 100x longer (the
	// paper measured full SPEC runs, billions of instructions, where the
	// one-time translation cost dilutes to 0.05%; our runs are ~10^6
	// guest instructions, so the measured percentage is higher by
	// construction).
	Amortized100   map[string]float64
	MeanOptPct     float64
	MeanSchedShare float64
	MeanAmortized  float64
}

// Figure18 measures optimization overhead from the SMARQ-64 runs.
func (r *Runner) Figure18() (*Figure18Data, error) {
	d := &Figure18Data{Benches: r.benchNames(), OptPct: map[string]float64{},
		SchedShare: map[string]float64{}, Amortized100: map[string]float64{}}
	r.Warm(crossCells(d.Benches, []string{CfgSMARQ64}))
	var allPct, allShare, allAmort []float64
	for _, bench := range d.Benches {
		st, err := r.Run(bench, CfgSMARQ64)
		if err != nil {
			return nil, err
		}
		optTotal := st.OptCycles + st.SchedCycles
		if st.TotalCycles > 0 {
			d.OptPct[bench] = float64(optTotal) / float64(st.TotalCycles)
			allPct = append(allPct, d.OptPct[bench])
			run := float64(st.TotalCycles - optTotal)
			d.Amortized100[bench] = float64(optTotal) / (float64(optTotal) + 100*run)
			allAmort = append(allAmort, d.Amortized100[bench])
		}
		if optTotal > 0 {
			d.SchedShare[bench] = float64(st.SchedCycles) / float64(optTotal)
			allShare = append(allShare, d.SchedShare[bench])
		}
	}
	d.MeanOptPct = mean(allPct)
	d.MeanSchedShare = mean(allShare)
	d.MeanAmortized = mean(allAmort)
	return d, nil
}

// Render formats the figure.
func (d *Figure18Data) Render() string {
	rows := make([][]string, 0, len(d.Benches)+1)
	for _, b := range d.Benches {
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%.4f%%", 100*d.OptPct[b]),
			fmt.Sprintf("%.4f%%", 100*d.Amortized100[b]),
			fmt.Sprintf("%.1f%%", 100*d.SchedShare[b]),
		})
	}
	rows = append(rows, []string{
		"mean",
		fmt.Sprintf("%.4f%%", 100*d.MeanOptPct),
		fmt.Sprintf("%.4f%%", 100*d.MeanAmortized),
		fmt.Sprintf("%.1f%%", 100*d.MeanSchedShare),
	})
	return "Figure 18: optimization overhead (% of execution; scheduling share of it)\n" +
		table([]string{"benchmark", "measured", "at 100x run length", "scheduling share"}, rows)
}

// Figure19Data reproduces Figure 19: constraints per memory operation,
// plus the AMOV statistics §3.3/§5.2 discuss.
type Figure19Data struct {
	Benches []string
	// Per-benchmark constraints per memory op.
	ChecksPerMem, AntisPerMem map[string]float64
	// AMOV statistics across the suite.
	AMovs, AMovCleanups   int
	MeanChecks, MeanAntis float64
}

// Figure19 aggregates constraint counts from the SMARQ-64 runs.
func (r *Runner) Figure19() (*Figure19Data, error) {
	d := &Figure19Data{Benches: r.benchNames(), ChecksPerMem: map[string]float64{}, AntisPerMem: map[string]float64{}}
	r.Warm(crossCells(d.Benches, []string{CfgSMARQ64}))
	var allC, allA []float64
	for _, bench := range d.Benches {
		st, err := r.Run(bench, CfgSMARQ64)
		if err != nil {
			return nil, err
		}
		var mem, checks, antis int
		for _, reg := range st.Regions {
			mem += reg.MemOps
			checks += reg.Alloc.Checks
			antis += reg.Alloc.Antis
			d.AMovs += reg.Alloc.AMovs
			d.AMovCleanups += reg.Alloc.AMovCleanups
		}
		if mem == 0 {
			continue
		}
		d.ChecksPerMem[bench] = float64(checks) / float64(mem)
		d.AntisPerMem[bench] = float64(antis) / float64(mem)
		allC = append(allC, d.ChecksPerMem[bench])
		allA = append(allA, d.AntisPerMem[bench])
	}
	d.MeanChecks = mean(allC)
	d.MeanAntis = mean(allA)
	return d, nil
}

// Render formats the figure.
func (d *Figure19Data) Render() string {
	rows := make([][]string, 0, len(d.Benches)+1)
	for _, b := range d.Benches {
		rows = append(rows, []string{
			b,
			fmt.Sprintf("%.2f", d.ChecksPerMem[b]),
			fmt.Sprintf("%.2f", d.AntisPerMem[b]),
		})
	}
	rows = append(rows, []string{
		"mean",
		fmt.Sprintf("%.2f", d.MeanChecks),
		fmt.Sprintf("%.2f", d.MeanAntis),
	})
	out := "Figure 19: constraints per memory operation (SMARQ-64)\n" +
		table([]string{"benchmark", "check", "anti"}, rows)
	if d.AMovs > 0 {
		out += fmt.Sprintf("AMOVs inserted: %d (%.0f%% pure cleanups)\n",
			d.AMovs, 100*float64(d.AMovCleanups)/float64(d.AMovs))
	} else {
		out += "AMOVs inserted: 0\n"
	}
	return out
}

// ScalingData is the §2.2/§6.1 register-count sweep (an extension of
// Figure 15 at finer granularity).
type ScalingData struct {
	Regs    []int
	Benches []string
	// Speedup[regs][bench] over the no-HW baseline.
	Speedup map[int]map[string]float64
	Mean    map[int]float64
}

// ScalingSweep measures speedup as the ordered queue grows.
func (r *Runner) ScalingSweep(regs []int) (*ScalingData, error) {
	if len(regs) == 0 {
		regs = []int{8, 16, 24, 32, 48, 64}
	}
	d := &ScalingData{Regs: regs, Benches: r.benchNames(),
		Speedup: map[int]map[string]float64{}, Mean: map[int]float64{}}
	sweep := []string{CfgNoHW}
	for _, n := range regs {
		name := fmt.Sprintf("smarq%d", n)
		r.AddConfig(name, dynopt.ConfigSMARQ(n))
		sweep = append(sweep, name)
	}
	r.Warm(crossCells(d.Benches, sweep))
	for _, n := range regs {
		name := fmt.Sprintf("smarq%d", n)
		d.Speedup[n] = map[string]float64{}
		var sps []float64
		for _, bench := range d.Benches {
			base, err := r.Run(bench, CfgNoHW)
			if err != nil {
				return nil, err
			}
			st, err := r.Run(bench, name)
			if err != nil {
				return nil, err
			}
			sp := float64(base.TotalCycles) / float64(st.TotalCycles)
			d.Speedup[n][bench] = sp
			sps = append(sps, sp)
		}
		d.Mean[n] = geomean(sps)
	}
	return d, nil
}

// Render formats the sweep.
func (d *ScalingData) Render() string {
	header := []string{"benchmark"}
	for _, n := range d.Regs {
		header = append(header, fmt.Sprintf("%d regs", n))
	}
	rows := make([][]string, 0, len(d.Benches)+1)
	for _, b := range d.Benches {
		row := []string{b}
		for _, n := range d.Regs {
			row = append(row, fmt.Sprintf("%.3f", d.Speedup[n][b]))
		}
		rows = append(rows, row)
	}
	last := []string{"geomean"}
	for _, n := range d.Regs {
		last = append(last, fmt.Sprintf("%.3f", d.Mean[n]))
	}
	rows = append(rows, last)
	return "Alias register scaling sweep: speedup over no-alias-HW baseline\n" +
		table(header, rows)
}

// SummaryLine renders a one-line run summary for the CLI tools.
func SummaryLine(st *dynopt.Stats) string {
	return fmt.Sprintf("cycles=%d (interp=%d region=%d rollback=%d opt=%d) commits=%d guard-fails=%d alias-exc=%d regions=%d",
		st.TotalCycles, st.InterpCycles, st.RegionCycles, st.RollbackCycles,
		st.OptCycles+st.SchedCycles, st.Commits, st.GuardFails, st.AliasExceptions, st.RegionsCompiled)
}

// RecoveryLine renders the tiered-recovery controller's one-line summary:
// ladder moves, cache evictions, and end-of-run residency per tier.
func RecoveryLine(st *dynopt.Stats) string {
	rec := &st.Recovery
	tiers := make([]string, 0, dynopt.NumTiers)
	for ti := 0; ti < dynopt.NumTiers; ti++ {
		tiers = append(tiers, fmt.Sprintf("%s=%d", dynopt.Tier(ti), rec.TierRegions[ti]))
	}
	return fmt.Sprintf("demotions=%d promotions=%d evictions=%d sticky=%d tiers[%s]",
		rec.Demotions, rec.Promotions, rec.Evictions, rec.StickyRegions,
		strings.Join(tiers, " "))
}

// InjectedLine renders the chaos injector's fired-fault counters; the
// host fault classes are appended only when any of them fired, so
// guest-only chaos output is unchanged.
func InjectedLine(st *dynopt.Stats) string {
	in := st.Injected
	line := fmt.Sprintf("spurious-alias=%d guard-fail=%d compile-fail=%d corruptions=%d",
		in.SpuriousAliases, in.GuardFails, in.CompileFails, in.Corruptions)
	if in.WorkerPanics+in.CompileHangs+in.PoisonedResults > 0 {
		line += fmt.Sprintf(" worker-panic=%d compile-hang=%d poison=%d",
			in.WorkerPanics, in.CompileHangs, in.PoisonedResults)
	}
	return line
}

// HealthLine renders the graceful-degradation controller's one-line
// summary: ladder moves, where the run ended up, and how much of the
// workload each level saw.
func HealthLine(st *dynopt.Stats) string {
	hs := &st.Health
	entries := make([]string, 0, len(hs.LevelEntries))
	for lv, n := range hs.LevelEntries {
		if n > 0 {
			entries = append(entries, fmt.Sprintf("%s=%d", health.Level(lv), n))
		}
	}
	return fmt.Sprintf("level=%s demotions=%d promotions=%d host-faults=%d rollbacks=%d quarantined=%d sticky=%v entries[%s]",
		hs.FinalLevel, hs.Demotions, hs.Promotions, hs.HostFaults, hs.Rollbacks,
		st.Compile.Quarantined, hs.Sticky, strings.Join(entries, " "))
}
