package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Add is a single atomic
// add; instruments are registered once up front so the hot path never
// touches the registry map.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Safe on a nil counter (disabled metrics).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time level metric (queue depths, occupancy). Unlike
// Counter it can move both ways; Set/Add are single atomic ops.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value. Safe on a nil gauge.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease). Safe on nil.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current level (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram aggregates observations into fixed buckets. bounds are
// inclusive upper bounds in ascending order; an implicit +Inf bucket
// catches the rest. Observe is a linear scan plus atomic adds — no
// allocation, no locks.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Int64
}

// Observe records one value. Safe on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Pow2Bounds returns power-of-two bucket bounds [lo, 2lo, 4lo, ..., hi].
func Pow2Bounds(lo, hi int64) []int64 {
	var b []int64
	for v := lo; v <= hi; v *= 2 {
		b = append(b, v)
	}
	return b
}

// Registry holds named instruments. Registration (Counter/Histogram)
// takes a lock and may allocate; it happens once at system construction.
// The instruments themselves are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil on a nil registry, so callers can register unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// LookupGauge returns the named gauge without registering it: nil when
// absent (or on a nil registry). Observability readers use it so a scrape
// never mutates the set of registered instruments.
func (r *Registry) LookupGauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use. Bounds must match across calls for the
// same name (the first registration wins). Returns nil on a nil
// registry.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histograms[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.histograms[name] = h
	}
	return h
}

// snapshot is the JSON shape of a registry dump.
type snapshot struct {
	Counters map[string]int64 `json:"counters"`
	// Gauges is omitted entirely when no gauge is registered so snapshots
	// from older runs (and gauge-free configurations) keep their bytes.
	Gauges     map[string]int64         `json:"gauges,omitempty"`
	Histograms map[string]histoSnapshot `json:"histograms"`
}

type histoSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []bucketSnap `json:"buckets"`
}

type bucketSnap struct {
	Le string `json:"le"` // inclusive upper bound, "+Inf" for the last
	N  int64  `json:"n"`
}

// WriteJSON writes a deterministic JSON snapshot of every instrument
// (encoding/json sorts map keys, so identical states encode to identical
// bytes). Zero-valued instruments are included: the set of keys reflects
// what is registered, not what fired.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	r.mu.Lock()
	snap := snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Histograms: make(map[string]histoSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		snap.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			snap.Gauges[name] = g.Value()
		}
	}
	for name, h := range r.histograms {
		hs := histoSnapshot{
			Count:   h.Count(),
			Sum:     h.Sum(),
			Buckets: make([]bucketSnap, len(h.counts)),
		}
		for i := range h.counts {
			le := "+Inf"
			if i < len(h.bounds) {
				le = strconv.FormatInt(h.bounds[i], 10)
			}
			hs.Buckets[i] = bucketSnap{Le: le, N: h.counts[i].Load()}
		}
		snap.Histograms[name] = hs
	}
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&snap)
}

// WriteText writes a human-oriented flat dump (name value per line).
// Every instrument class is included — counters and gauges by value,
// histograms as name_count/name_sum — and all lines are sorted, so the
// dump is byte-deterministic for a given registry state.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	lines := make([]string, 0, len(r.counters)+len(r.gauges)+2*len(r.histograms))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d\n", name, c.Value()))
	}
	for name, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("%s %d\n", name, g.Value()))
	}
	for name, h := range r.histograms {
		lines = append(lines,
			fmt.Sprintf("%s_count %d\n", name, h.Count()),
			fmt.Sprintf("%s_sum %d\n", name, h.Sum()))
	}
	r.mu.Unlock()
	sort.Strings(lines)
	for _, ln := range lines {
		if _, err := io.WriteString(w, ln); err != nil {
			return err
		}
	}
	return nil
}
