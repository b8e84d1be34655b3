// Command smarq-trace shows the optimizer's work on the code dynopt
// installed for a benchmark. It runs the benchmark under the dynamic
// optimizer, ranks the regions left installed by commit count (ties to
// the lower entry), rebuilds each through System.InspectRegion and prints
// its superblock, dependences, schedule with issue cycles and alias
// register annotations (P/C bits, offsets, rotations, AMOVs), and
// allocation statistics.
//
// Usage:
//
//	smarq-trace -bench ammp             # most-committed installed region
//	smarq-trace -bench mesa -all        # every installed region
//	smarq-trace -bench swim -regs 16    # with a 16-register file
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// commitCounter is a telemetry sink that counts commit events per region.
type commitCounter map[int32]int64

func (c commitCounter) WriteEvents(evs []telemetry.Event) error {
	for i := range evs {
		if evs[i].Kind == telemetry.KindCommit {
			c[evs[i].Region]++
		}
	}
	return nil
}

func (commitCounter) Close() error { return nil }

// run is main with a testable surface: it returns the exit code (0 ok,
// 1 runtime failure, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("smarq-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "swim", "benchmark name")
	all := fs.Bool("all", false, "dump every installed region, not just the most committed")
	regs := fs.Int("regs", 64, "alias register count")
	storeReorder := fs.Bool("storereorder", true, "allow speculative store reordering")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bm, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(stderr, "smarq-trace: unknown benchmark %q\n", *bench)
		return 2
	}
	cfg := dynopt.DefaultConfig()
	cfg.NumAliasRegs, cfg.StoreReorder = *regs, *storeReorder
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, "smarq-trace:", err)
		return 2
	}

	commits := commitCounter{}
	tracer := telemetry.NewTracer(0, commits)
	cfg.Telemetry = &telemetry.Telemetry{Events: tracer}
	sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	_, err := sys.Run(bm.MaxInsts)
	if cerr := tracer.Close(); err == nil {
		err = cerr
	}
	regions := slices.Clone(sys.Stats.Regions)
	slices.SortFunc(regions, func(a, b dynopt.RegionStats) int {
		return cmp.Or(cmp.Compare(commits[int32(b.Entry)], commits[int32(a.Entry)]), cmp.Compare(a.Entry, b.Entry))
	})
	dumped := 0
	for _, r := range regions {
		if err != nil || dumped > 0 && !*all {
			break
		}
		err = sys.InspectRegion(r.Entry, func(c *dynopt.Compilation) {
			fmt.Fprintf(stdout, "=== %s: region B%d (committed %d times, tier %s) ===\n",
				bm.Name, r.Entry, commits[int32(r.Entry)], r.Tier)
			dump(stdout, cfg, c)
			dumped++
		})
		if errors.Is(err, dynopt.ErrNoCode) {
			err = nil
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "smarq-trace:", err)
		return 1
	}
	return 0
}

// dump prints one compilation: superblock, eliminations, dependences,
// schedule with issue cycles and alias register annotations, allocation.
func dump(w io.Writer, cfg dynopt.Config, c *dynopt.Compilation) {
	sb := c.Superblock
	fmt.Fprintf(w, "%v%d guest insts, %d mem ops, %d overflow retries\n\n",
		sb, len(sb.Insts), sb.NumMemOps(), c.OverflowRetries)
	if c.Opt != nil {
		fmt.Fprintf(w, "eliminations: %d loads forwarded, %d stores removed\n",
			c.Opt.LoadsRemoved, c.Opt.StoresRemoved)
	} else {
		fmt.Fprintln(w, "eliminations: none (re-translated after an alias register overflow)")
	}
	base, ext := c.Deps.Counts()
	fmt.Fprintf(w, "dependences: %d base, %d extended\n", base, ext)
	for _, d := range c.Deps.Sorted() {
		fmt.Fprintln(w, "  ", d)
	}

	seq := c.Schedule.Seq
	cycles := cfg.Machine.IssueCycles(seq, c.Region.NumVRegs)
	fmt.Fprintf(w, "\nschedule (%d ops, %d cycles on the VLIW):\n", len(seq), c.Code.Cycles)
	for i, op := range seq {
		annot := ""
		if op.IsMem() && op.AROffset >= 0 {
			bits := ""
			if op.P {
				bits += "P"
			}
			if op.C {
				bits += "C"
			}
			annot = fmt.Sprintf("   ; AR offset %d [%s]", op.AROffset, bits)
		}
		cycleCol := "     "
		if i == 0 || cycles[i] != cycles[i-1] {
			cycleCol = fmt.Sprintf("%4d:", cycles[i])
		}
		fmt.Fprintf(w, "  %s %3d: %s%s\n", cycleCol, i, op, annot)
	}

	st := c.Schedule.Alloc.Stats
	fmt.Fprintf(w, "\nallocation: P=%d C=%d checks=%d antis=%d amovs=%d (cleanups=%d) rotates=%d working-set=%d\n\n",
		st.PBits, st.CBits, st.Checks, st.Antis, st.AMovs, st.AMovCleanups,
		st.Rotates, st.WorkingSet)
}
