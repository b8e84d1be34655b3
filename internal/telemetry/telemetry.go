package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// Telemetry bundles the two observability surfaces a run can enable
// independently: the cycle-stamped event tracer and the aggregating
// metrics registry. A nil *Telemetry (or nil fields) disables the
// corresponding surface; every consumer nil-checks before emitting.
type Telemetry struct {
	Events  *Tracer
	Metrics *Registry
}

// Tracer returns the event tracer (nil when tracing is disabled).
func (t *Telemetry) Tracer() *Tracer {
	if t == nil {
		return nil
	}
	return t.Events
}

// LineSink is a mutex-guarded line writer for human-oriented progress
// output (the figure harness's verbose stream). Each Emitf call writes
// one whole line atomically, so concurrent runs never interleave
// mid-line; errors are sticky and silently swallowed — progress output
// must never abort a run.
type LineSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewLineSink wraps w. A nil *LineSink is a valid disabled sink.
func NewLineSink(w io.Writer) *LineSink { return &LineSink{w: w} }

// Emitf formats one line (a trailing newline is appended) and writes it
// under the lock. Safe on a nil sink.
func (s *LineSink) Emitf(format string, args ...interface{}) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	_, s.err = fmt.Fprintf(s.w, format+"\n", args...)
}

// Err returns the first write error.
func (s *LineSink) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Handler serves the registry as a live metrics endpoint. The default
// encoding is the deterministic JSON snapshot (back-compatible with the
// original `smarq-run -listen` surface); `?format=prometheus` — or an
// Accept header preferring text/plain — selects the Prometheus text
// exposition instead. Both encodings emit sorted metric names, so two
// scrapes of identical registry states are byte-identical regardless of
// registration order. Instrument reads are atomic, so serving
// concurrently with a running system is safe.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if wantsPrometheus(req) {
			w.Header().Set("Content-Type", PrometheusContentType)
			_ = r.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// PrometheusContentType is the content type of the text exposition
// format served to scrapers.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// wantsPrometheus resolves a metrics request's encoding: an explicit
// ?format= wins, then an Accept header that names text/plain without
// naming application/json.
func wantsPrometheus(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := req.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") &&
		!strings.Contains(accept, "application/json")
}
