package telemetry

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

// buildRegistry populates a registry with every instrument class in the
// given registration order — the determinism tests register the same
// instruments in different orders and demand identical exposition bytes.
func buildRegistry(order []string) *Registry {
	reg := NewRegistry()
	for _, name := range order {
		switch name {
		case "c_plain":
			reg.Counter("requests_total").Add(7)
		case "c_tier_full":
			reg.Counter(Labeled("tier_dispatches", Label{"tier", "full"})).Add(3)
		case "c_tier_cons":
			reg.Counter(Labeled("tier_dispatches", Label{"tier", "conservative"})).Add(2)
		case "g":
			reg.Gauge("queue_depth").Set(5)
		case "h":
			h := reg.Histogram("latency_cycles", []int64{10, 100})
			h.Observe(5)
			h.Observe(50)
			h.Observe(500)
		}
	}
	return reg
}

func TestPrometheusExposition(t *testing.T) {
	reg := buildRegistry([]string{"c_plain", "c_tier_full", "c_tier_cons", "g", "h"})
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE requests_total counter\nrequests_total 7\n",
		"# TYPE tier_dispatches counter\n" +
			`tier_dispatches{tier="conservative"} 2` + "\n" +
			`tier_dispatches{tier="full"} 3` + "\n",
		"# TYPE queue_depth gauge\nqueue_depth 5\n",
		"# TYPE latency_cycles histogram\n" +
			`latency_cycles_bucket{le="10"} 1` + "\n" +
			`latency_cycles_bucket{le="100"} 2` + "\n" +
			`latency_cycles_bucket{le="+Inf"} 3` + "\n" +
			"latency_cycles_sum 555\nlatency_cycles_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestPrometheusDeterministic: identical registry states expose to
// identical bytes regardless of registration order — the property the
// obs endpoint goldens rely on. The JSON snapshot and WriteText must
// hold it too.
func TestPrometheusDeterministic(t *testing.T) {
	orders := [][]string{
		{"c_plain", "c_tier_full", "c_tier_cons", "g", "h"},
		{"h", "g", "c_tier_cons", "c_tier_full", "c_plain"},
		{"c_tier_cons", "h", "c_plain", "g", "c_tier_full"},
	}
	encode := func(reg *Registry) (prom, js, txt string) {
		var pb, jb, tb bytes.Buffer
		if err := reg.WritePrometheus(&pb); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		if err := reg.WriteJSON(&jb); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		if err := reg.WriteText(&tb); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		return pb.String(), jb.String(), tb.String()
	}
	p0, j0, t0 := encode(buildRegistry(orders[0]))
	for _, order := range orders[1:] {
		p, j, txt := encode(buildRegistry(order))
		if p != p0 {
			t.Errorf("prometheus bytes depend on registration order:\n%s\nvs\n%s", p, p0)
		}
		if j != j0 {
			t.Errorf("JSON bytes depend on registration order")
		}
		if txt != t0 {
			t.Errorf("text bytes depend on registration order")
		}
	}
}

func TestPrometheusExtraLabels(t *testing.T) {
	reg := buildRegistry([]string{"c_plain", "c_tier_full", "h"})
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b, Label{"tenant", "3"}, Label{"bench", "swim"}); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	for _, want := range []string{
		`requests_total{bench="swim",tenant="3"} 7`,
		`tier_dispatches{bench="swim",tenant="3",tier="full"} 3`,
		`latency_cycles_bucket{bench="swim",tenant="3",le="10"} 1`,
		`latency_cycles_count{bench="swim",tenant="3"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledCanonical(t *testing.T) {
	a := Labeled("m", Label{"b", "2"}, Label{"a", "1"})
	b := Labeled("m", Label{"a", "1"}, Label{"b", "2"})
	if a != b || a != `m{a="1",b="2"}` {
		t.Errorf("Labeled not canonical: %q vs %q", a, b)
	}
	if got := Labeled("m"); got != "m" {
		t.Errorf("Labeled with no labels = %q, want m", got)
	}
	if got := Labeled("m", Label{"k", `a"b\c`}); got != `m{k="a\"b\\c"}` {
		t.Errorf("escaping: %q", got)
	}
}

func TestLookupDoesNotRegister(t *testing.T) {
	reg := NewRegistry()
	if reg.LookupGauge("nope") != nil {
		t.Fatal("lookup of an absent instrument returned non-nil")
	}
	var before bytes.Buffer
	if err := reg.WriteJSON(&before); err != nil {
		t.Fatal(err)
	}
	reg.LookupGauge("phantom_gauge")
	var after bytes.Buffer
	if err := reg.WriteJSON(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Errorf("Lookup mutated the registry:\n%s\nvs\n%s", before.String(), after.String())
	}
	reg.Gauge("realg").Set(9)
	if g := reg.LookupGauge("realg"); g == nil || g.Value() != 9 {
		t.Errorf("LookupGauge missed a registered gauge")
	}
	var nilReg *Registry
	if nilReg.LookupGauge("x") != nil {
		t.Errorf("nil registry lookups must return nil")
	}
}

// TestHandlerFormats: the live endpoint serves JSON by default (the
// original -listen contract) and the Prometheus text format on request,
// both deterministic.
func TestHandlerFormats(t *testing.T) {
	reg := buildRegistry([]string{"c_plain", "g", "h"})
	h := reg.Handler()

	get := func(target, accept string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", target, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := get("/metrics", ""); !strings.Contains(rec.Header().Get("Content-Type"), "application/json") ||
		!strings.Contains(rec.Body.String(), `"counters"`) {
		t.Errorf("default format is not the JSON snapshot: %s %s",
			rec.Header().Get("Content-Type"), rec.Body.String())
	}
	for _, target := range []string{"/metrics?format=prometheus", "/metrics?format=text"} {
		rec := get(target, "")
		if rec.Header().Get("Content-Type") != PrometheusContentType ||
			!strings.Contains(rec.Body.String(), "# TYPE requests_total counter") {
			t.Errorf("%s did not serve the text exposition: %s", target, rec.Body.String())
		}
	}
	if rec := get("/metrics", "text/plain"); !strings.Contains(rec.Body.String(), "# TYPE") {
		t.Errorf("Accept: text/plain did not select prometheus")
	}
	if rec := get("/metrics?format=json", "text/plain"); !strings.Contains(rec.Body.String(), `"counters"`) {
		t.Errorf("?format=json must win over Accept")
	}

	// Byte-determinism across repeated scrapes of a quiescent registry.
	a := get("/metrics?format=prometheus", "").Body.String()
	b := get("/metrics?format=prometheus", "").Body.String()
	if a != b {
		t.Errorf("repeated scrapes differ")
	}
}

// TestNilRegistryPrometheus: the nil-registry path writes nothing.
func TestNilRegistryPrometheus(t *testing.T) {
	var reg *Registry
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil || b.Len() != 0 {
		t.Errorf("nil registry: err=%v len=%d", err, b.Len())
	}
}
