package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"smarq/internal/dynopt"
	"smarq/internal/guest"
	"smarq/internal/harness"
	"smarq/internal/ir"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}, {0.25, 2}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

// TestTailRule checks the "at least ten samples beyond" rule: 200 samples
// resolve p95, 199 do not.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{200, 0.95, true}, {199, 0.95, false}, {1000, 0.99, true}, {999, 0.99, false}, {20, 0.5, true}, {19, 0.5, false}} {
		if got := resolved(c.n, c.p); got != c.want {
			t.Errorf("resolved(%d, %v) = %v (beyond %d), want %v", c.n, c.p, got, samplesBeyond(c.n, c.p), c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	m := func(med, q1, q3 float64) metric { return metric{Median: med, Q1: q1, Q3: q3} }
	lower := bound{Better: "lower", Bound: 0.1}
	higher := bound{Better: "higher", Bound: 0.1}
	exact := bound{Better: "lower", Bound: 0}
	for _, c := range []struct {
		name      string
		base, cur metric
		b         bound
		want      string
	}{
		{"same", m(10, 9.9, 10.1), m(10, 9.9, 10.1), lower, unchanged},
		{"within bound", m(10, 9.9, 10.1), m(10.5, 10.4, 10.6), lower, unchanged},
		{"slower", m(10, 9.9, 10.1), m(12, 11.9, 12.1), lower, worse},
		{"faster", m(10, 9.9, 10.1), m(8, 7.9, 8.1), lower, better},
		{"throughput down", m(100, 99, 101), m(80, 79, 81), higher, worse},
		{"throughput up", m(100, 99, 101), m(120, 119, 121), higher, better},
		{"noisy base", m(10, 8, 12), m(20, 19.9, 20.1), lower, unresolved},
		{"noisy new", m(10, 9.9, 10.1), m(20, 15, 25), lower, unresolved},
		{"exact moved", m(1.25, 1.25, 1.25), m(1.2500001, 1.2500001, 1.2500001), exact, worse},
		{"exact held", m(0, 0, 0), m(0, 0, 0), exact, unchanged},
		{"from zero", m(0, 0, 0), m(0.01, 0.01, 0.01), exact, worse},
	} {
		if got := verdict(c.base, c.cur, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// firstPasses lists the job names of a workload's first passes at seed.
func firstPasses(t *testing.T, name string, seed int64) []string {
	t.Helper()
	r := newRunner(name, seed)
	jobs, err := buildJobs(name, seed, buildPrograms())
	if err != nil {
		t.Fatal(err)
	}
	r.jobs = jobs
	r.order = make([]int, len(jobs))
	for i := range r.order {
		r.order[i] = i
	}
	var names []string
	for p := 0; p < 3; p++ {
		r.shuffle()
		for _, i := range r.order {
			names = append(names, jobs[i].name())
		}
	}
	return names
}

func TestJobListsSeeded(t *testing.T) {
	for _, w := range workloadNames {
		a, b := firstPasses(t, w, 1), firstPasses(t, w, 1)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different job sequences", w)
		}
		if reflect.DeepEqual(a, firstPasses(t, w, 2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same job sequence", w)
		}
		// Every pass runs the whole job list.
		n := len(a) / 3
		pass := append([]string(nil), a[:n]...)
		sort.Strings(pass)
		for p := 1; p < 3; p++ {
			other := append([]string(nil), a[p*n:(p+1)*n]...)
			sort.Strings(other)
			if !reflect.DeepEqual(pass, other) {
				t.Errorf("%s: pass %d runs a different job list", w, p)
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 50},  // overlaps a
		{name: "c", parent: 0, start: 90, end: 120}, // runs past the root
		{name: "leaf", parent: 1, start: 12, end: 14},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 18, 30, 30, 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestSmoke runs all four workloads end to end at tiny sizes: set-up, one
// timed round, one traced repetition, and the result line of the
// single-workload entry point.
func TestSmoke(t *testing.T) {
	start := time.Now()
	dir := t.TempDir()
	tr := newTracer()
	for pid, w := range workloadNames {
		r := newRunner(w, 1)
		r.jobLimit = 6
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		r.round(time.Millisecond)
		e2e := r.endToEnd()
		for _, name := range endToEndOrder {
			if _, ok := e2e[name]; !ok {
				t.Errorf("%s: no %s", w, name)
			}
		}
		if e2e["guest_mips"].Median <= 0 || e2e["sim_cpi"].Median <= 0 || e2e["setup_s"].Median <= 0 {
			t.Errorf("%s: degenerate metrics %+v", w, e2e)
		}
		layers, err := traceWorkload(r, tr, pid, time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if len(layers) != len(layerDefs) {
			t.Errorf("%s: %d per-layer metrics, want %d", w, len(layers), len(layerDefs))
		}
		if layers["interp.ns_per_inst"].Median <= 0 || layers["region.form_us"].Median <= 0 {
			t.Errorf("%s: degenerate per-layer metrics", w)
		}
		if r.failed != 0 {
			t.Errorf("%s: %d of %d jobs failed: %v", w, r.failed, r.attempted, r.firstErr)
		}
	}
	path := filepath.Join(dir, "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != len(tr.spans)+len(workloadNames) {
		t.Errorf("trace has %d events, want %d spans + %d process names", len(doc.TraceEvents), len(tr.spans), len(workloadNames))
	}

	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		args := []string{"--workload", "coldstart", "--seed", "2", "--seconds", "0.01", "--trace", trace,
			"--trace-out", filepath.Join(dir, "t.json")}
		if err := run(args, &out, &errOut); err != nil {
			t.Fatalf("run %v: %v\n%s", args, err, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		keys := sortedKeys(res)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Errorf("result keys %v", keys)
		}
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			t.Fatal(err)
		}
		want := lineMetrics
		if trace == "1" {
			want = layerOrder
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 || len(r.Metrics) != len(want) {
			t.Errorf("--trace %s: result %+v", trace, r)
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestReplayCompileMatchesDynopt checks the replay's copy of dynopt's
// compile pipeline and pass settings: every region dynopt compiled once at
// full speculation, and the replay formed with the same superblock, must
// compile to the same allocation stats, working sets and sequence length.
// The figure configurations and the three ablations are covered.
func TestReplayCompileMatchesDynopt(t *testing.T) {
	configs := make(map[string]dynopt.Config)
	for _, name := range figureConfigs {
		cfg, err := harness.ParseConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		configs[name] = cfg
	}
	for name, ab := range map[string]dynopt.Ablation{"noanti": {Anti: true}, "norotation": {Rotation: true}, "noelim": {Elim: true}} {
		cfg := dynopt.ConfigSMARQ(64)
		cfg.Ablation = ab
		configs[name] = cfg
	}
	progs := buildPrograms()
	compared := 0
	for _, bench := range []string{"swim", "equake", "ammp"} {
		for config, cfg := range configs {
			p := progs[bench]
			c, err := replayPair(newTracer(), 0, pairKey(bench, config), p, cfg, ir.NewArena())
			if err != nil {
				t.Fatal(err)
			}
			sys := dynopt.New(p.prog, &guest.State{}, guest.NewMemory(p.bm.MemSize), cfg)
			if _, err := sys.Run(p.bm.MaxInsts); err != nil {
				t.Fatal(err)
			}
			st := &sys.Stats
			for i := range st.Regions {
				rs := &st.Regions[i]
				if st.Recompiles != 0 || rs.Tier != dynopt.TierFull || !replayed(c.regions, rs, false) {
					continue
				}
				compared++
				if !replayed(c.regions, rs, true) {
					t.Errorf("%s/%s: region B%d compiles differently in the replay", bench, config, rs.Entry)
				}
			}
		}
	}
	t.Logf("%d regions compared", compared)
	if compared < 10 {
		t.Errorf("only %d regions compared", compared)
	}
}

// TestBenchmarkJSONNames checks that BENCHMARK.json lists exactly the
// metrics and workloads the program reports.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name string }
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []named) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), sorted(workloadNames)},
		{"end_to_end", names(spec.EndToEnd), sorted(lineMetrics)},
		{"per_layer", names(spec.PerLayer), sorted(layerOrder)},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, want %v", c.what, c.got, c.want)
		}
	}
}
