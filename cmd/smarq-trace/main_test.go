package main

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// runtimeEvents is a telemetry sink that keeps each region's last compile
// event and counts its commits.
type runtimeEvents struct {
	compile map[int32]telemetry.Event
	commits map[int32]int64
}

func (r *runtimeEvents) WriteEvents(evs []telemetry.Event) error {
	for _, e := range evs {
		switch e.Kind {
		case telemetry.KindCompile:
			r.compile[e.Region] = e
		case telemetry.KindCommit:
			r.commits[e.Region]++
		}
	}
	return nil
}

func (*runtimeEvents) Close() error { return nil }

// runBench runs bm under cfg and returns its events.
func runBench(t *testing.T, bm workload.Benchmark, cfg dynopt.Config) *runtimeEvents {
	t.Helper()
	ev := &runtimeEvents{compile: map[int32]telemetry.Event{}, commits: map[int32]int64{}}
	tracer := telemetry.NewTracer(0, ev)
	cfg.Telemetry = &telemetry.Telemetry{Events: tracer}
	sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	if _, err := sys.Run(bm.MaxInsts); err != nil {
		t.Fatalf("%s: %v", bm.Name, err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return ev
}

var (
	headerRE   = regexp.MustCompile(`^(\S+): region B(\d+) \(committed (\d+) times, tier \S+\) ===`)
	sizeRE     = regexp.MustCompile(`(?m)^(\d+) guest insts, (\d+) mem ops, \d+ overflow retries$`)
	scheduleRE = regexp.MustCompile(`(?m)^schedule \((\d+) ops, (\d+) cycles on the VLIW\):$`)
)

// atoi parses a regexp submatch the pattern guarantees is a number.
func atoi(s string) int64 {
	n, _ := strconv.ParseInt(s, 10, 64)
	return n
}

// checkDumps runs smarq-trace with args and compares every dumped region
// with a separate runtime run of bm under cfg: the region's ops, guest
// insts, mem ops and cycles must equal its last compile event, its commit
// count must equal the run's, and regions must come most-committed first,
// ties to the lower entry.
func checkDumps(t *testing.T, bm workload.Benchmark, cfg dynopt.Config, args ...string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("smarq-trace %v: exit %d: %s", args, code, stderr.String())
	}
	ev := runBench(t, bm, cfg)
	sections := strings.Split(stdout.String(), "=== ")[1:]
	if len(sections) == 0 {
		t.Fatalf("smarq-trace %v dumped no region", args)
	}
	prevCommits, prevEntry := int64(-1), int64(-1)
	for _, sec := range sections {
		h := headerRE.FindStringSubmatch(sec)
		size := sizeRE.FindStringSubmatch(sec)
		sched := scheduleRE.FindStringSubmatch(sec)
		if h == nil || size == nil || sched == nil || h[1] != bm.Name {
			t.Fatalf("smarq-trace %v: malformed dump:\n%s", args, sec)
		}
		entry, commits := atoi(h[2]), atoi(h[3])
		e, ok := ev.compile[int32(entry)]
		if !ok {
			t.Fatalf("%s: dumped B%d, which the runtime never compiled", bm.Name, entry)
		}
		got := [4]int64{atoi(sched[1]), atoi(size[1]), atoi(size[2]), atoi(sched[2])}
		want := [4]int64{e.A, e.B, e.C, e.Cost}
		if got != want {
			t.Errorf("%s B%d: dump ops/guest insts/mem ops/cycles = %v, runtime compile event %v", bm.Name, entry, got, want)
		}
		if commits != ev.commits[int32(entry)] {
			t.Errorf("%s B%d: dump says %d commits, runtime %d", bm.Name, entry, commits, ev.commits[int32(entry)])
		}
		if prevCommits >= 0 && (commits > prevCommits || commits == prevCommits && entry < prevEntry) {
			t.Errorf("%s: B%d (%d commits) dumped after B%d (%d commits)", bm.Name, entry, commits, prevEntry, prevCommits)
		}
		prevCommits, prevEntry = commits, entry
	}
}

// TestDumpsMatchRuntimeCompiles: for every benchmark, each dumped region
// is the code the runtime installed.
func TestDumpsMatchRuntimeCompiles(t *testing.T) {
	for _, bm := range workload.Suite() {
		checkDumps(t, bm, dynopt.DefaultConfig(), "-bench", bm.Name, "-all")
	}
}

// TestTwoRegistersUseOverflowLadder: with 2 alias registers, regions whose
// working set overflows are dumped as the retry ladder installed them.
func TestTwoRegistersUseOverflowLadder(t *testing.T) {
	for _, name := range []string{"wupwise", "facerec"} {
		bm, _ := workload.ByName(name)
		checkDumps(t, bm, dynopt.ConfigSMARQ(2), "-bench", name, "-all", "-regs", "2")
	}
}

func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-regs", "1"}, "NumAliasRegs 1"},
		{[]string{"-regs", "0"}, "NumAliasRegs 0"},
		{[]string{"-bench", "nosuch"}, `unknown benchmark "nosuch"`},
		{[]string{"-nosuchflag"}, "flag provided but not defined"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("smarq-trace %v: exit %d, stderr %q; want exit 2 mentioning %q", tc.args, code, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("smarq-trace %v wrote to stdout: %q", tc.args, stdout.String())
		}
	}
}
