// Package obs is the fleet observability plane's live surface: one HTTP
// server exposing Prometheus metrics, per-tenant health, shared-cache
// occupancy and pprof over a shutdownable listener. It is deliberately
// read-only — every endpoint renders a snapshot of state owned elsewhere
// (tenant registries, the shared codecache) and never mutates it, so a
// scrape can race a running fleet safely.
//
// Endpoints:
//
//	/metrics        Prometheus text exposition (fleet registry plus every
//	                tenant registry with tenant/bench labels); ?format=json
//	                selects the JSON snapshot of the fleet registry
//	/healthz        per-tenant health-controller levels as JSON; 503 once
//	                any tenant has degraded to compile-off or worse
//	/debug/cache    shared codecache stats: lookup totals, live keys and
//	                derived rates
//	/debug/tenants  per-tenant progress and stats snapshots
//	/debug/pprof/   the standard runtime profiles
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

	"smarq/internal/codecache"
	"smarq/internal/health"
	"smarq/internal/telemetry"
)

// TenantView is one tenant's scrape-time snapshot. Metrics points at the
// tenant's live registry (instrument reads are atomic); Stats is only set
// once the tenant is Done, because dynopt.Stats is written lock-free by
// the tenant goroutine while it runs.
type TenantView struct {
	ID      int
	Bench   string
	Done    bool
	Metrics *telemetry.Registry
	Stats   interface{}
}

// Options wires a Server to the state it exposes. Every field is
// optional; nil hooks render as absent sections rather than errors.
type Options struct {
	// Fleet is the fleet-global registry (codecache instruments, harness
	// counters). Served unlabeled on /metrics.
	Fleet *telemetry.Registry
	// Tenants returns the current tenant snapshots.
	Tenants func() []TenantView
	// Cache returns the shared compile cache's current stats.
	Cache func() codecache.Stats
	// Refresh, when set, runs before each /metrics render — the fleet
	// uses it to delta-sync codecache counters into Fleet so scrapes see
	// live values instead of the end-of-run publish.
	Refresh func()
}

// Server is the ops HTTP server. Construct with NewServer, bind with
// Start (addr ":0" works for tests), and stop with Shutdown.
type Server struct {
	opts Options
	mux  *http.ServeMux

	mu   sync.Mutex
	ln   net.Listener
	srv  *http.Server
	addr string
}

// NewServer builds the server and its routes without binding a socket.
func NewServer(opts Options) *Server {
	s := &Server{opts: opts, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/cache", s.handleCache)
	s.mux.HandleFunc("/debug/tenants", s.handleTenants)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the route mux (tests drive it without a socket).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr and serves in the background. The bind itself is
// synchronous — a bad address fails here, not in a goroutine's log line —
// and binding port 0 resolves to a real port readable via Addr.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s.mux}
	srv := s.srv
	s.mu.Unlock()
	go func() {
		// ErrServerClosed is the normal shutdown path; anything else has
		// nowhere to go but the next Shutdown call (stored errors are not
		// worth a channel for a read-only debug surface).
		_ = srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addr
}

// Shutdown gracefully stops the server, waiting for in-flight scrapes up
// to the context deadline. Safe to call without Start (no-op).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	srv := s.srv
	s.srv, s.ln = nil, nil
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, req *http.Request) {
	if req.URL.Path != "/" {
		http.NotFound(w, req)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "smarq observability plane\n\n"+
		"/metrics        Prometheus exposition (?format=json for the JSON snapshot)\n"+
		"/healthz        per-tenant health levels\n"+
		"/debug/cache    shared code cache occupancy and rates\n"+
		"/debug/tenants  per-tenant stats snapshots\n"+
		"/debug/pprof/   runtime profiles\n")
}

// handleMetrics renders the fleet registry unlabeled followed by every
// tenant registry scoped with tenant/bench labels, all in one exposition
// page. The per-registry encodings are deterministic; tenant order is
// the stable fleet order.
func (s *Server) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if s.opts.Refresh != nil {
		s.opts.Refresh()
	}
	if req.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		_ = s.opts.Fleet.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", telemetry.PrometheusContentType)
	_ = s.opts.Fleet.WritePrometheus(w)
	for _, tv := range s.tenants() {
		_ = tv.Metrics.WritePrometheus(w,
			telemetry.Label{Name: "tenant", Value: strconv.Itoa(tv.ID)},
			telemetry.Label{Name: "bench", Value: tv.Bench})
	}
}

func (s *Server) tenants() []TenantView {
	if s.opts.Tenants == nil {
		return nil
	}
	return s.opts.Tenants()
}

// tenantHealth reads a tenant's current health level off its registry
// without registering anything: an absent gauge (metrics off) reads as
// normal, and with the controller off the gauge stays at normal.
func tenantHealth(tv *TenantView) health.Level {
	if g := tv.Metrics.LookupGauge("health_level"); g != nil {
		return health.Level(g.Value())
	}
	return health.Normal
}

// handleHealthz reports every tenant's degradation level. The HTTP
// status degrades with the fleet: 200 while every tenant still compiles,
// 503 once any tenant reaches compile-off or quarantine, so the endpoint
// doubles as a load-balancer check.
func (s *Server) handleHealthz(w http.ResponseWriter, req *http.Request) {
	type tenantHealthJSON struct {
		Tenant int    `json:"tenant"`
		Bench  string `json:"bench"`
		Level  string `json:"level"`
		Done   bool   `json:"done"`
	}
	views := s.tenants()
	out := struct {
		Status  string             `json:"status"`
		Tenants []tenantHealthJSON `json:"tenants,omitempty"`
	}{Status: "ok", Tenants: make([]tenantHealthJSON, 0, len(views))}
	code := http.StatusOK
	for i := range views {
		tv := &views[i]
		lvl := tenantHealth(tv)
		if lvl >= health.CompileOff {
			out.Status = "degraded"
			code = http.StatusServiceUnavailable
		}
		out.Tenants = append(out.Tenants, tenantHealthJSON{
			Tenant: tv.ID, Bench: tv.Bench, Level: lvl.String(), Done: tv.Done,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&out)
}

// handleCache renders the shared cache snapshot with derived rates over
// lookups: hits, and lookups that counted no compile (dedupe). The fleet
// cache is unbounded and holds no code, so it leaves out the byte,
// eviction and flight-wait counters, which read 0 or interleaving noise.
func (s *Server) handleCache(w http.ResponseWriter, req *http.Request) {
	var st codecache.Stats
	if s.opts.Cache != nil {
		st = s.opts.Cache()
	}
	rate := func(n, d int64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	out := struct {
		Entries, Lookups, Hits, Misses, Compiles, Contention int64

		HitRate    float64 `json:"hit_rate"`
		DedupeRate float64 `json:"dedupe_rate"`
	}{
		Entries: st.Entries, Lookups: st.Lookups, Hits: st.Hits,
		Misses: st.Misses, Compiles: st.Compiles, Contention: st.Contention,
		HitRate:    rate(st.Hits, st.Lookups),
		DedupeRate: rate(st.Lookups-st.Compiles, st.Lookups),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(&out)
}

// handleTenants renders per-tenant progress. Stats is only present once
// a tenant has finished — while it runs, its Stats struct is being
// written without synchronization by the tenant goroutine.
func (s *Server) handleTenants(w http.ResponseWriter, req *http.Request) {
	type tenantJSON struct {
		Tenant int         `json:"tenant"`
		Bench  string      `json:"bench"`
		Done   bool        `json:"done"`
		Health string      `json:"health"`
		Stats  interface{} `json:"stats,omitempty"`
	}
	views := s.tenants()
	out := make([]tenantJSON, 0, len(views))
	for i := range views {
		tv := &views[i]
		tj := tenantJSON{
			Tenant: tv.ID, Bench: tv.Bench, Done: tv.Done,
			Health: tenantHealth(tv).String(),
		}
		if tv.Done {
			tj.Stats = tv.Stats
		}
		out = append(out, tj)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
