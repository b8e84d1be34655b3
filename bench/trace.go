package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans stay in memory until the run
// ends and are written out once.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a root
	pid, tid   int32 // workload, lane
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans around the benchmark's calls into each layer.
type tracer struct {
	epoch time.Time
	spans []span
	procs map[int32]string // pid -> workload name
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), procs: make(map[int32]string)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(name string, parent int32, pid, tid int) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, pid: int32(pid), tid: int32(tid), start: t.now()})
	return int32(len(t.spans) - 1)
}

// end closes span id and returns its duration in ns.
func (t *tracer) end(id int32) int64 {
	s := &t.spans[id]
	s.end = t.now()
	return s.end - s.start
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i := range spans {
		if p := spans[i].parent; p >= 0 {
			kids[p] = append(kids[p], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i := range spans {
		s := &spans[i]
		iv = iv[:0]
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.start
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// traceEvent is one Chrome trace-event record ("X" complete events plus
// "M" process-name metadata), the format Perfetto and chrome://tracing load.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int32          `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores every span as Chrome trace-event JSON; timestamps are in µs.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	first := true
	emit := func(ev *traceEvent) error {
		if !first {
			w.WriteString(",")
		}
		first = false
		return enc.Encode(ev)
	}
	for _, pid := range sortedPids(t.procs) {
		if err := emit(&traceEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": t.procs[pid]}}); err != nil {
			return err
		}
	}
	self := selfTimes(t.spans)
	for i := range t.spans {
		s := &t.spans[i]
		if err := emit(&traceEvent{Name: s.name, Cat: "bench", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: s.pid, Tid: s.tid,
			Args: map[string]any{"id": i, "parent": s.parent, "self_us": float64(self[i]) / 1e3}}); err != nil {
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func sortedPids(m map[int32]string) []int32 {
	pids := make([]int32, 0, len(m))
	for p := range m {
		pids = append(pids, p)
	}
	sort.Slice(pids, func(a, b int) bool { return pids[a] < pids[b] })
	return pids
}
