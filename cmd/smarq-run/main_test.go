package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"smarq/internal/dynopt"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/harness"
	"smarq/internal/health"
	"smarq/internal/workload"
)

// TestInvariantViolationExitsNonZero pins the chaos-debugging contract:
// when the rollback invariant checker fires (here provoked by injected
// post-rollback corruption), the run must stop at the first violation,
// print it, and exit non-zero — a soak script must never mistake a
// corrupted run for a clean one.
func TestInvariantViolationExitsNonZero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-bench", "swim", "-chaos-seed", "7",
		"-chaos-corrupt-rate", "1", "-check-invariants",
	}, &out, &errb)
	if code == 0 {
		t.Fatalf("exit code 0 despite forced post-rollback corruption\nstdout:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "invariant") {
		t.Errorf("stderr does not name the violated invariant:\n%s", errb.String())
	}
}

// TestHostChaosRunSucceeds: the full host-fault mix with the health
// controller armed completes cleanly and reports the host-fault and
// health summary lines.
func TestHostChaosRunSucceeds(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-bench", "swim", "-chaos-seed", "7", "-chaos-host", "-health",
		"-compile-workers", "2", "-check-invariants",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"host faults:", "health:", "worker-panic="} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestHealthTuningThatCannotDemote: a -health tuning whose demotion
// threshold the window score can never reach (128 slots × host-fault
// weight 4 = 512 < 600, or 4 × 4 = 16 < 17) would run an inert
// controller, so the command refuses it with Validate's message and exits
// 2.
func TestHealthTuningThatCannotDemote(t *testing.T) {
	for _, tc := range []struct{ window, demote int }{{0, 600}, {4, 17}} {
		cfg := health.DefaultConfig()
		if tc.window > 0 {
			cfg.Window = tc.window
		}
		cfg.DemoteThreshold = tc.demote
		verr := cfg.Validate()
		if verr == nil {
			t.Fatalf("Validate accepted window %d demote %d", cfg.Window, tc.demote)
		}
		args := []string{"-bench", "swim", "-health", "-health-demote", fmt.Sprint(tc.demote)}
		if tc.window > 0 {
			args = append(args, "-health-window", fmt.Sprint(tc.window))
		}
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), verr.Error()) {
			t.Errorf("%v: stderr %q does not carry %q", args, errb.String(), verr.Error())
		}
	}
}

// TestCompileLatencyAverage: the printed average compile latency divides
// LatencySum by every compile the sum covers — admitted or rejected at
// the install point, never a watchdog kill — so a run with a rejected
// poisoned result reports the true mean. The test rebuilds the same run
// through dynopt to read its Stats.
func TestCompileLatencyAverage(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-bench", "swim", "-compile-workers", "4",
		"-chaos-seed", "7", "-chaos-host", "-health",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, errb.String())
	}
	m := regexp.MustCompile(`compile: (\d+ enqueued, \d+ installed, \d+ canceled, \d+ failed), avg latency (\d+) cycles`).
		FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no compile line in output:\n%s", out.String())
	}

	bm, _ := workload.ByName("swim")
	cfg, err := harness.ParseConfig("smarq64")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Chaos = faultinject.DefaultHost(7)
	cfg.Health = health.DefaultConfig()
	cfg.Compile.Workers = 4
	sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	if _, err := sys.Run(bm.MaxInsts); err != nil {
		t.Fatal(err)
	}
	cs := sys.Stats.Compile
	if got := fmt.Sprintf("%d enqueued, %d installed, %d canceled, %d failed",
		cs.Enqueued, cs.Installed, cs.Canceled, cs.Failed); got != m[1] {
		t.Fatalf("rebuilt run differs from the CLI run: Stats say %q, CLI printed %q", got, m[1])
	}
	if cs.Rejected == 0 {
		t.Fatal("no poisoned result was rejected: the divisor went unchecked")
	}
	want := cs.LatencySum / (cs.Installed + cs.Failed - cs.WatchdogKills)
	if want == cs.LatencySum/cs.Installed {
		t.Fatal("the run does not tell the right divisor from Installed alone")
	}
	if got := m[2]; got != fmt.Sprint(want) {
		t.Errorf("printed avg latency %s cycles, Stats give %d", got, want)
	}
}

// TestListenRunExitsCleanly pins the -listen lifecycle fix: the ops
// server binds port 0 synchronously, serves for the run, and is shut
// down when the run completes — run() returns instead of leaking the
// listener goroutine, and the bound address is reported on stderr.
func TestListenRunExitsCleanly(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-bench", "swim", "-maxinsts", "20000", "-listen", "127.0.0.1:0",
	}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit code %d\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "serving observability endpoints on http://127.0.0.1:") {
		t.Errorf("stderr does not report the bound address:\n%s", errb.String())
	}
}

// TestListenBindErrorFailsFast: a hopeless -listen address fails the run
// with exit 1 before any simulation work, not in a background goroutine's
// log line.
func TestListenBindErrorFailsFast(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{
		"-bench", "swim", "-listen", "256.0.0.1:0",
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\nstderr:\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "listen") {
		t.Errorf("stderr does not name the bind failure:\n%s", errb.String())
	}
}

func TestUsageErrors(t *testing.T) {
	// Each case exits 2 and names the bad input on stderr.
	cases := map[string]struct {
		args []string
		want string
	}{
		"unknown benchmark":              {[]string{"-bench", "nope"}, `unknown benchmark "nope"`},
		"bad host rate":                  {[]string{"-bench", "swim", "-chaos-seed", "1", "-chaos-host-panic-rate", "2"}, "WorkerPanicRate = 2"},
		"bad flag":                       {[]string{"-definitely-not-a-flag"}, "-definitely-not-a-flag"},
		"negative health window":         {[]string{"-bench", "swim", "-health", "-health-window", "-5"}, "Window -5"},
		"negative alias rate":            {[]string{"-bench", "swim", "-chaos-seed", "1", "-chaos-alias-rate", "-0.5"}, "SpuriousAliasRate = -0.5"},
		"health tuning without -health":  {[]string{"-bench", "swim", "-health-window", "4"}, "-health-window needs -health"},
		"chaos rate without -chaos-seed": {[]string{"-bench", "swim", "-chaos-alias-rate", "0.5"}, "-chaos-alias-rate needs -chaos-seed"},
		"negative compile cycles/inst":   {[]string{"-bench", "swim", "-compile-workers", "1", "-compile-cycles-per-inst", "-5"}, "CompileCyclesPerInst -5"},
		"negative compile cycles/check":  {[]string{"-bench", "swim", "-compile-workers", "1", "-compile-cycles-per-check", "-5"}, "CompileCyclesPerCheck -5"},
		"compile cycles/inst inline":     {[]string{"-bench", "swim", "-compile-cycles-per-inst", "999"}, "-compile-cycles-per-inst needs -compile-workers"},
		"compile cycles/check inline":    {[]string{"-bench", "swim", "-compile-cycles-per-check", "999"}, "-compile-cycles-per-check needs -compile-workers"},
		"hang rate inline":               {[]string{"-bench", "swim", "-chaos-seed", "3", "-chaos-host-hang-rate", "1"}, "-chaos-host-hang-rate needs -compile-workers"},
		"removed watchdog flag":          {[]string{"-bench", "swim", "-compile-watchdog", "7"}, "-compile-watchdog"},
	}
	for name, c := range cases {
		var out, errb bytes.Buffer
		if code := run(c.args, &out, &errb); code != 2 {
			t.Errorf("%s: exit code %d, want 2 (stderr: %s)", name, code, errb.String())
		}
		if !strings.Contains(errb.String(), c.want) {
			t.Errorf("%s: stderr %q does not contain %q", name, errb.String(), c.want)
		}
	}
}
