package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func TestAppendJSONGolden(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Cycle: 120, Kind: KindCompile, Region: 3, Tier: 0, To: -1,
				Cost: 40, A: 12, B: 9, C: 4, D: 2},
			`{"cycle":120,"ev":"compile","region":3,"tier":"t0","cost":40,"ops":12,"guest":9,"mem":4,"ws":2}`,
		},
		{
			Event{Cycle: 200, Kind: KindCommit, Region: 3, Tier: 0, To: -1,
				Cost: 14, A: 2, B: 1},
			`{"cycle":200,"ev":"commit","region":3,"tier":"t0","cost":14,"occupancy":2,"stores":1}`,
		},
		{
			Event{Cycle: 300, Kind: KindRollback, Region: 3, Tier: 0, To: -1,
				Cause: CauseAlias, Cost: 64, A: 7},
			`{"cycle":300,"ev":"rollback","region":3,"tier":"t0","cause":"alias","cost":64,"ops":7}`,
		},
		{
			Event{Cycle: 301, Kind: KindDemote, Region: 3, Tier: 1, To: 2,
				Cause: CauseRate},
			`{"cycle":301,"ev":"demote","region":3,"tier":"t1","to":"t2","cause":"rollback-rate"}`,
		},
		{
			Event{Kind: KindMeta, Region: -1, Tier: -1, To: -1, Run: 2,
				Name: "swim/smarq"},
			`{"cycle":0,"ev":"meta","run":2,"name":"swim/smarq"}`,
		},
	}
	for _, c := range cases {
		got := string(AppendJSON(nil, &c.ev))
		if got != c.want {
			t.Errorf("AppendJSON(%v)\n got %s\nwant %s", c.ev, got, c.want)
		}
		// Every line must also be valid JSON.
		var m map[string]interface{}
		if err := json.Unmarshal([]byte(got), &m); err != nil {
			t.Errorf("AppendJSON(%v) not valid JSON: %v", c.ev, err)
		}
	}
}

// collectSink records every batch it receives.
type collectSink struct {
	events []Event
	closed bool
	err    error
}

func (s *collectSink) WriteEvents(evs []Event) error {
	if s.err != nil {
		return s.err
	}
	s.events = append(s.events, evs...)
	return nil
}

func (s *collectSink) Close() error { s.closed = true; return nil }

func TestTracerStreamingLosesNothing(t *testing.T) {
	sink := &collectSink{}
	tr := NewTracer(8, sink)
	const n = 100
	for i := 0; i < n; i++ {
		tr.Emit(Event{Cycle: int64(i), Kind: KindDispatch, Region: -1, Tier: -1, To: -1})
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != n {
		t.Fatalf("streamed %d events, want %d", len(sink.events), n)
	}
	for i, e := range sink.events {
		if e.Cycle != int64(i) {
			t.Fatalf("event %d out of order: cycle %d", i, e.Cycle)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("streaming tracer dropped %d", tr.Dropped())
	}
}

func TestTracerFlightRecorderKeepsNewest(t *testing.T) {
	tr := NewTracer(8, nil)
	for i := 0; i < 20; i++ {
		tr.Emit(Event{Cycle: int64(i), Region: -1, Tier: -1, To: -1})
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("flight recorder holds %d, want 8", len(evs))
	}
	for i, e := range evs {
		if want := int64(12 + i); e.Cycle != want {
			t.Fatalf("event %d: cycle %d, want %d", i, e.Cycle, want)
		}
	}
	if tr.Dropped() != 12 {
		t.Fatalf("dropped %d, want 12", tr.Dropped())
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.Events() != nil || tr.Dropped() != 0 || tr.Err() != nil {
		t.Fatal("nil tracer should be inert")
	}
}

func TestTracerSinkErrorSticky(t *testing.T) {
	boom := errors.New("boom")
	sink := &collectSink{err: boom}
	tr := NewTracer(4, sink)
	for i := 0; i < 10; i++ { // force a drain mid-emission
		tr.Emit(Event{Region: -1, Tier: -1, To: -1})
	}
	if err := tr.Err(); !errors.Is(err, boom) {
		t.Fatalf("Err() = %v, want %v", err, boom)
	}
	// The run keeps going: further emits must not panic.
	tr.Emit(Event{Region: -1, Tier: -1, To: -1})
	if err := tr.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want %v", err, boom)
	}
	if !sink.closed {
		t.Fatal("Close did not close the sink")
	}
}

func TestEmitZeroAlloc(t *testing.T) {
	tr := NewTracer(16, nil) // flight recorder: wraps constantly
	ev := Event{Kind: KindCommit, Region: 5, Tier: 0, To: -1, Cost: 10}
	if n := testing.AllocsPerRun(200, func() { tr.Emit(ev) }); n != 0 {
		t.Fatalf("Emit allocates %.1f per op, want 0", n)
	}
	reg := NewRegistry()
	c := reg.Counter("commits")
	h := reg.Histogram("cost", []int64{8, 64, 512})
	if n := testing.AllocsPerRun(200, func() { c.Add(1); h.Observe(37) }); n != 0 {
		t.Fatalf("Add+Observe allocates %.1f per op, want 0", n)
	}
}

func TestJSONLSinkDeterministic(t *testing.T) {
	emit := func() string {
		var buf bytes.Buffer
		tr := NewTracer(4, NewJSONLSink(&buf))
		for i := 0; i < 10; i++ {
			tr.Emit(Event{Cycle: int64(i * 10), Kind: KindCommit, Region: 1,
				Tier: 0, To: -1, Cost: 5, A: int64(i % 3)})
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := emit(), emit()
	if a != b {
		t.Fatalf("identical event streams encoded differently:\n%s\nvs\n%s", a, b)
	}
	if got := strings.Count(a, "\n"); got != 10 {
		t.Fatalf("got %d lines, want 10", got)
	}
}

func TestChromeSinkValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(4, NewChromeSink(&buf)) // tiny ring: multi-batch drains
	tr.Run = 1
	tr.Emit(Event{Kind: KindMeta, Region: -1, Tier: -1, To: -1, Name: "swim/smarq"})
	tr.Emit(Event{Cycle: 50, Kind: KindCompile, Region: 3, Tier: 0, To: -1, Cost: 40, A: 12})
	tr.Emit(Event{Cycle: 90, Kind: KindDispatch, Region: 3, Tier: 0, To: -1})
	tr.Emit(Event{Cycle: 130, Kind: KindCommit, Region: 3, Tier: 0, To: -1, Cost: 40, A: 2, B: 1})
	tr.Emit(Event{Cycle: 200, Kind: KindRollback, Region: 3, Tier: 0, To: -1, Cause: CauseAlias, Cost: 70, A: 7})
	tr.Emit(Event{Cycle: 201, Kind: KindDemote, Region: 3, Tier: 0, To: 1, Cause: CauseRate})
	tr.Emit(Event{Cycle: 400, Kind: KindEvict, Region: 3, Tier: 1, To: -1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string                 `json:"name"`
			Ph   string                 `json:"ph"`
			Pid  int                    `json:"pid"`
			Tid  int                    `json:"tid"`
			Ts   int64                  `json:"ts"`
			Dur  int64                  `json:"dur"`
			Args map[string]interface{} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	var haveCommit, haveRollback, haveProcName, haveThreadName bool
	for _, e := range doc.TraceEvents {
		switch {
		case e.Name == "commit" && e.Ph == "X":
			haveCommit = true
			if e.Ts != 90 || e.Dur != 40 {
				t.Errorf("commit slice ts=%d dur=%d, want ts=90 dur=40", e.Ts, e.Dur)
			}
			if e.Tid != 4 { // region 3 → tid 4
				t.Errorf("commit tid=%d, want 4", e.Tid)
			}
		case strings.HasPrefix(e.Name, "rollback") && e.Ph == "X":
			haveRollback = true
			if e.Name != "rollback:alias" {
				t.Errorf("rollback name %q, want rollback:alias", e.Name)
			}
		case e.Name == "process_name" && e.Ph == "M":
			haveProcName = true
			if e.Args["name"] != "swim/smarq" {
				t.Errorf("process_name args %v", e.Args)
			}
		case e.Name == "thread_name" && e.Ph == "M":
			haveThreadName = true
		case e.Name == "dispatch":
			t.Error("dispatch events must be skipped in chrome traces")
		}
	}
	if !haveCommit || !haveRollback || !haveProcName || !haveThreadName {
		t.Fatalf("missing records: commit=%v rollback=%v proc=%v thread=%v\n%s",
			haveCommit, haveRollback, haveProcName, haveThreadName, buf.String())
	}
}

func TestChromeSinkFirstEventMeta(t *testing.T) {
	// Regression: a KindMeta first record, then a normal one across a
	// second WriteEvents batch — the separator state must span batches.
	var buf bytes.Buffer
	s := NewChromeSink(&buf)
	if err := s.WriteEvents([]Event{{Kind: KindMeta, Region: -1, Tier: -1, To: -1, Name: "r"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteEvents([]Event{{Cycle: 5, Kind: KindCompile, Region: 0, Tier: 0, To: -1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Counter("zebra").Add(3)
		r.Counter("alpha").Add(1)
		h := r.Histogram("cost", []int64{8, 64})
		h.Observe(4)
		h.Observe(100)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("registry snapshots differ:\n%s\nvs\n%s", a, b)
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count   int64 `json:"count"`
			Sum     int64 `json:"sum"`
			Buckets []struct {
				Le string `json:"le"`
				N  int64  `json:"n"`
			} `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(a), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["zebra"] != 3 || snap.Counters["alpha"] != 1 {
		t.Fatalf("counters wrong: %v", snap.Counters)
	}
	h := snap.Histograms["cost"]
	if h.Count != 2 || h.Sum != 104 {
		t.Fatalf("histogram count=%d sum=%d, want 2/104", h.Count, h.Sum)
	}
	if len(h.Buckets) != 3 || h.Buckets[0].N != 1 || h.Buckets[2].N != 1 ||
		h.Buckets[2].Le != "+Inf" {
		t.Fatalf("buckets wrong: %+v", h.Buckets)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", []int64{10, 20})
	for _, v := range []int64{10, 11, 20, 21} {
		h.Observe(v)
	}
	want := []int64{1, 2, 1} // 10 | 11,20 | 21
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: %d, want %d", i, got, w)
		}
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should be inert")
	}
	h := r.Histogram("y", []int64{1})
	h.Observe(9)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should be inert")
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var tel *Telemetry
	if tel.Tracer() != nil {
		t.Fatal("nil Telemetry should expose a nil tracer")
	}
}

func TestPow2Bounds(t *testing.T) {
	got := Pow2Bounds(16, 256)
	want := []int64{16, 32, 64, 128, 256}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestLineSink(t *testing.T) {
	var buf bytes.Buffer
	s := NewLineSink(&buf)
	s.Emitf("# %s: %d", "swim", 42)
	if got := buf.String(); got != "# swim: 42\n" {
		t.Fatalf("got %q", got)
	}
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	var nilSink *LineSink
	nilSink.Emitf("dropped %d", 1)
	if nilSink.Err() != nil {
		t.Fatal("nil LineSink should be inert")
	}
}
