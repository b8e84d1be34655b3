package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smarq/internal/dynopt"
	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/health"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

func writeTrace(t *testing.T, name string, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func analyze(t *testing.T, args ...string) *Report {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append([]string{"-json"}, args...), &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	var r Report
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, out.String())
	}
	return &r
}

// TestSyntheticTrace pins the analyzer's reconstruction against a
// hand-written trace with known answers: enqueue→install latency
// matching (including a canceled enqueue and a synchronous install),
// cycle attribution, the live-region occupancy set, health-level name
// mapping, and the kind-polymorphic "to" key (tier-name string on
// demote, numeric level on health — one trace carries both).
func TestSyntheticTrace(t *testing.T) {
	path := writeTrace(t, "synth.jsonl",
		`{"cycle":0,"ev":"meta","name":"synth-cell"}`,
		`{"cycle":100,"ev":"compile-enqueue","region":1,"tier":"full","cost":50,"depth":2,"memo":0}`,
		`{"cycle":150,"ev":"compile-enqueue","region":2,"tier":"full","cost":50,"depth":3,"memo":0}`,
		`{"cycle":180,"ev":"compile-cancel","region":2,"tier":"full"}`,
		`{"cycle":300,"ev":"compile","region":1,"tier":"full","cost":10,"ops":5,"guest":5,"mem":1,"ws":0}`,
		`{"cycle":310,"ev":"dispatch","region":1,"tier":"full"}`,
		`{"cycle":350,"ev":"commit","region":1,"tier":"full","cost":40,"occupancy":4,"stores":2}`,
		`{"cycle":400,"ev":"compile","region":3,"tier":"light","cost":5,"ops":3,"guest":3,"mem":0,"ws":0}`,
		`{"cycle":500,"ev":"demote","region":3,"tier":"light","to":"conservative","cause":"chronic"}`,
		`{"cycle":600,"ev":"rollback","region":1,"tier":"full","cause":"alias","cost":30,"ops":7}`,
		`{"cycle":700,"ev":"evict","region":3,"tier":"light"}`,
		`{"cycle":800,"ev":"health","cause":"rollback-storm","from":0,"to":2}`,
		`{"cycle":1000,"ev":"commit","region":1,"tier":"full","cost":60,"occupancy":4,"stores":1}`,
	)
	r := analyze(t, path)
	if len(r.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(r.Runs))
	}
	rr := r.Runs[0]
	if rr.Label != "synth.jsonl (synth-cell)" {
		t.Errorf("label %q: meta name not folded in", rr.Label)
	}
	if rr.Events != 13 || rr.TotalCycles != 1000 {
		t.Errorf("events=%d total=%d, want 13/1000", rr.Events, rr.TotalCycles)
	}

	// Region 1's enqueue at 100 installs at 300 (latency 200); region 2's
	// enqueue is canceled; region 3 installs synchronously (latency 0).
	if l := rr.CompileLatency; l.Count != 2 || l.P50 != 0 || l.Max != 200 {
		t.Errorf("latency %+v, want count=2 p50=0 max=200", l)
	}

	a := rr.Attribution
	if a.Execute != 100 || a.Rollback != 30 || a.Interpret != 1000-100-30 || a.CompileWait != 200 {
		t.Errorf("attribution %+v", a)
	}
	if a.Total != a.Execute+a.Rollback+a.Interpret {
		t.Errorf("attribution does not sum to total: %+v", a)
	}

	// Occupancy: compiles at 300 and 400 raise the live set to 2, the
	// evict at 700 drops it to 1 — and that level carries to the end.
	if occ := rr.CacheOccupancy; occ.Peak != 2 || occ.Final != 1 ||
		occ.Buckets[len(occ.Buckets)-1] != 1 {
		t.Errorf("occupancy %+v", occ)
	}
	if qd := rr.QueueDepth; qd.Peak != 3 {
		t.Errorf("queue depth peak %d, want 3", qd.Peak)
	}

	if len(rr.Health) != 1 || rr.Health[0].From != "normal" ||
		rr.Health[0].To != "compile-off" || rr.Health[0].Cause != "rollback-storm" {
		t.Errorf("health transitions %+v", rr.Health)
	}
	if rr.Counts["commit"] != 2 || rr.Counts["demote"] != 1 {
		t.Errorf("counts %+v", rr.Counts)
	}
}

// TestStormDetection: 8 rollbacks of one region inside the window flag a
// storm, sliding extensions merge into one interval, and a region just
// under the threshold stays quiet.
func TestStormDetection(t *testing.T) {
	var lines []string
	// Region 5: 12 rollbacks, 10 cycles apart — one merged storm.
	for i := 0; i < 12; i++ {
		lines = append(lines, fmt.Sprintf(
			`{"cycle":%d,"ev":"rollback","region":5,"tier":"full","cause":"alias","cost":3,"ops":1}`,
			1000+10*i))
	}
	// Region 6: 7 rollbacks — below the threshold of 8.
	for i := 0; i < 7; i++ {
		lines = append(lines, fmt.Sprintf(
			`{"cycle":%d,"ev":"rollback","region":6,"tier":"full","cause":"alias","cost":3,"ops":1}`,
			2000+10*i))
	}
	// Region 7: two bursts of 8 separated by far more than the window —
	// two distinct storms.
	for i := 0; i < 8; i++ {
		lines = append(lines, fmt.Sprintf(
			`{"cycle":%d,"ev":"rollback","region":7,"tier":"full","cause":"alias","cost":3,"ops":1}`,
			10_000+10*i))
	}
	for i := 0; i < 8; i++ {
		lines = append(lines, fmt.Sprintf(
			`{"cycle":%d,"ev":"rollback","region":7,"tier":"full","cause":"alias","cost":3,"ops":1}`,
			100_000+10*i))
	}
	path := writeTrace(t, "storm.jsonl", lines...)
	r := analyze(t, "-storm-window", "4096", "-storm-count", "8", path)
	storms := r.Runs[0].Storms
	if len(storms) != 3 {
		t.Fatalf("got %d storms, want 3: %+v", len(storms), storms)
	}
	if s := storms[0]; s.Region != 5 || s.Start != 1000 || s.End != 1110 || s.Rollbacks != 12 {
		t.Errorf("region 5 storm %+v, want [1000,1110] with 12 rollbacks", s)
	}
	if storms[1].Region != 7 || storms[2].Region != 7 ||
		storms[1].Rollbacks != 8 || storms[2].Rollbacks != 8 {
		t.Errorf("region 7 storms %+v", storms[1:])
	}
	if storms[1].End >= storms[2].Start {
		t.Errorf("distinct bursts merged: %+v", storms[1:])
	}
}

// TestChaosTraceHealthAndStorms runs the analyzer over a real seeded
// chaos trace, not a hand-written one, and requires both health history
// and storm intervals in the report. Guard failures at rate 0.6 roll one
// region back many times within the storm window, and a health
// controller that demotes at score 6 moves on them; seed 1 gives several
// of each. (The analyze-smoke golden's chaos run has neither.)
func TestChaosTraceHealthAndStorms(t *testing.T) {
	bm, ok := workload.ByName("equake")
	if !ok {
		t.Fatal("no benchmark equake")
	}
	path := filepath.Join(t.TempDir(), "chaos.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tracer := telemetry.NewTracer(0, telemetry.NewJSONLSink(f))
	cfg := dynopt.ConfigSMARQ(64)
	cfg.Chaos = faultinject.DefaultHost(1)
	cfg.Chaos.GuardFailRate = 0.6
	cfg.Health = health.DefaultConfig()
	cfg.Health.DemoteThreshold = 6
	cfg.Telemetry = &telemetry.Telemetry{Events: tracer}
	sys := dynopt.New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	if halted, err := sys.Run(bm.MaxInsts); err != nil || !halted {
		t.Fatalf("halted=%v err=%v", halted, err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}

	r := analyze(t, path)
	if len(r.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(r.Runs))
	}
	rr := r.Runs[0]
	if len(rr.Health) == 0 {
		t.Errorf("no health transitions in the report (health stats %+v)", sys.Stats.Health)
	}
	if len(rr.Storms) == 0 {
		t.Errorf("no storm intervals in the report (%d guard fails)", sys.Stats.GuardFails)
	}
}

// TestMultiRunSplit: smarq-bench artifact traces interleave cells via the
// run field; each run gets its own report, sorted by label.
func TestMultiRunSplit(t *testing.T) {
	path := writeTrace(t, "bench.jsonl",
		`{"cycle":0,"ev":"meta","run":1,"name":"swim/base"}`,
		`{"cycle":0,"ev":"meta","run":2,"name":"swim/smarq"}`,
		`{"cycle":10,"ev":"commit","run":1,"region":1,"tier":"full","cost":4,"occupancy":1,"stores":0}`,
		`{"cycle":20,"ev":"commit","run":2,"region":1,"tier":"full","cost":6,"occupancy":1,"stores":0}`,
		`{"cycle":30,"ev":"commit","run":2,"region":1,"tier":"full","cost":2,"occupancy":1,"stores":0}`,
	)
	r := analyze(t, path)
	if len(r.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(r.Runs))
	}
	if r.Runs[0].Label != "bench.jsonl#run1 (swim/base)" ||
		r.Runs[1].Label != "bench.jsonl#run2 (swim/smarq)" {
		t.Errorf("labels %q / %q", r.Runs[0].Label, r.Runs[1].Label)
	}
	if r.Runs[0].Attribution.Execute != 4 || r.Runs[1].Attribution.Execute != 8 {
		t.Errorf("per-run execute: %d / %d, want 4 / 8",
			r.Runs[0].Attribution.Execute, r.Runs[1].Attribution.Execute)
	}
}

// TestMultiFileFleet: per-tenant fleet trace files become separate runs.
func TestMultiFileFleet(t *testing.T) {
	p0 := writeTrace(t, "fleet.tenant0-swim.json",
		`{"cycle":10,"ev":"commit","region":1,"tier":"full","cost":4,"occupancy":1,"stores":0}`)
	p1 := writeTrace(t, "fleet.tenant1-equake.json",
		`{"cycle":10,"ev":"commit","region":1,"tier":"full","cost":9,"occupancy":1,"stores":0}`)
	r := analyze(t, p0, p1)
	if len(r.Runs) != 2 ||
		r.Runs[0].Label != "fleet.tenant0-swim.json" ||
		r.Runs[1].Label != "fleet.tenant1-equake.json" {
		t.Fatalf("runs: %+v", r.Runs)
	}
}

// TestDeterministicOutput: both output modes are byte-stable across
// invocations on the same trace.
func TestDeterministicOutput(t *testing.T) {
	path := writeTrace(t, "det.jsonl",
		`{"cycle":100,"ev":"compile-enqueue","region":1,"tier":"full","cost":50,"depth":1,"memo":0}`,
		`{"cycle":200,"ev":"compile","region":1,"tier":"full","cost":10,"ops":5,"guest":5,"mem":1,"ws":0}`,
		`{"cycle":300,"ev":"commit","region":1,"tier":"full","cost":40,"occupancy":1,"stores":2}`,
	)
	for _, mode := range [][]string{{"-json", path}, {path}} {
		var a, b bytes.Buffer
		if code := run(mode, &a, &bytes.Buffer{}); code != 0 {
			t.Fatalf("exit %d", code)
		}
		if code := run(mode, &b, &bytes.Buffer{}); code != 0 {
			t.Fatalf("exit %d", code)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("mode %v not byte-deterministic", mode)
		}
	}
}

// TestTextReport spot-checks the human rendering.
func TestTextReport(t *testing.T) {
	path := writeTrace(t, "text.jsonl",
		`{"cycle":100,"ev":"compile-enqueue","region":1,"tier":"full","cost":50,"depth":1,"memo":0}`,
		`{"cycle":200,"ev":"compile","region":1,"tier":"full","cost":10,"ops":5,"guest":5,"mem":1,"ws":0}`,
		`{"cycle":400,"ev":"commit","region":1,"tier":"full","cost":100,"occupancy":1,"stores":2}`,
		`{"cycle":500,"ev":"health","cause":"alias-storm","from":0,"to":1}`,
	)
	var out, errb bytes.Buffer
	if code := run([]string{path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{
		"== text.jsonl ==",
		"execute 100 (20.0%)",
		"compile latency: 1 installs, p50=100",
		"health @500: normal -> no-speculation (alias-storm)",
		"cache occupancy:",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, out.String())
		}
	}
}

func TestErrors(t *testing.T) {
	t.Run("no args", func(t *testing.T) {
		var out, errb bytes.Buffer
		if code := run(nil, &out, &errb); code != 2 || !strings.Contains(errb.String(), "usage") {
			t.Errorf("exit %d, stderr %q", code, errb.String())
		}
	})
	t.Run("bad flag", func(t *testing.T) {
		if code := run([]string{"-nope"}, &bytes.Buffer{}, &bytes.Buffer{}); code != 2 {
			t.Errorf("exit %d, want 2", code)
		}
	})
	t.Run("missing file", func(t *testing.T) {
		var errb bytes.Buffer
		if code := run([]string{"/does/not/exist.jsonl"}, &bytes.Buffer{}, &errb); code != 1 {
			t.Errorf("exit %d, want 1: %s", code, errb.String())
		}
	})
	t.Run("malformed line names file and line", func(t *testing.T) {
		path := writeTrace(t, "bad.jsonl",
			`{"cycle":10,"ev":"commit","region":1,"tier":"full","cost":4,"occupancy":1,"stores":0}`,
			`[1,2,3]  this is a chrome trace, not JSONL`)
		var errb bytes.Buffer
		if code := run([]string{path}, &bytes.Buffer{}, &errb); code != 1 {
			t.Errorf("exit %d, want 1", code)
		}
		if !strings.Contains(errb.String(), "bad.jsonl:2") {
			t.Errorf("stderr does not pinpoint the line: %s", errb.String())
		}
	})
}
