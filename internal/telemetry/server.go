package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// Server exposes a registry over HTTP the way a production exporter does:
// GET /metrics returns the Prometheus text exposition, GET /healthz a
// health probe, GET /debug/requests the flight recorder. It binds eagerly
// (so a bad address fails fast) and serves in a background goroutine.
type Server struct {
	listener net.Listener
	srv      *http.Server
}

// contentTypeText is the text exposition format version served on /metrics.
const contentTypeText = "text/plain; version=0.0.4; charset=utf-8"

// HandlerOptions configures NewHandler. Only Registry is required; nil
// Recorder/Health leave the corresponding endpoints in their degenerate
// modes (empty recorder list, always-ok health).
type HandlerOptions struct {
	// Registry backs /metrics.
	Registry *Registry
	// Recorder backs /debug/requests and /debug/requests/slowest; nil
	// serves empty lists.
	Recorder *Recorder
	// Health backs /healthz; nil preserves the legacy always-200 probe.
	Health *Health
	// Pprof mounts net/http/pprof under /debug/pprof/ when true. Off by
	// default: profiles expose internals and cost CPU to capture.
	Pprof bool
}

// slowestDefaultLimit is the record count /debug/requests/slowest returns
// when no limit parameter is given.
const slowestDefaultLimit = 10

// writeJSON marshals v with indentation (these are operator-facing debug
// endpoints, read by humans and curl | jq alike).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// parseLimit reads an optional positive ?limit= query parameter, returning
// def when absent and an error for junk.
func parseLimit(r *http.Request, def int) (int, error) {
	raw := r.URL.Query().Get("limit")
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("limit must be a non-negative integer, got %q", raw)
	}
	return n, nil
}

// requestsPayload is the JSON envelope of the /debug/requests endpoints.
type requestsPayload struct {
	// Total counts every record ever added, including evicted ones;
	// Capacity is the ring size.
	Total    uint64          `json:"total"`
	Capacity int             `json:"capacity"`
	Requests []RequestRecord `json:"requests"`
}

// NewHandler returns an http.Handler serving the observability surface:
//
//	GET /metrics                  Prometheus text exposition
//	GET /healthz                  health probe (503 draining/unhealthy)
//	GET /debug/requests           flight recorder, newest-first
//	GET /debug/requests/slowest   flight recorder, slowest-first
//	GET /debug/pprof/...          net/http/pprof (opts.Pprof only)
//
// Unknown routes 404 (the mux registers exact paths, no catch-all).
func NewHandler(opts HandlerOptions) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentTypeText)
		_ = opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		rep := opts.Health.Report() // nil-safe: ok/serving
		status := http.StatusOK
		if !rep.Serving {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, rep)
	})
	mux.HandleFunc("GET /debug/requests", func(w http.ResponseWriter, r *http.Request) {
		limit, err := parseLimit(r, 0)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		recs := opts.Recorder.Snapshot()
		if limit > 0 && len(recs) > limit {
			recs = recs[:limit]
		}
		writeJSON(w, http.StatusOK, requestsPayload{
			Total:    opts.Recorder.Total(),
			Capacity: opts.Recorder.Capacity(),
			Requests: recs,
		})
	})
	mux.HandleFunc("GET /debug/requests/slowest", func(w http.ResponseWriter, r *http.Request) {
		limit, err := parseLimit(r, slowestDefaultLimit)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, http.StatusOK, requestsPayload{
			Total:    opts.Recorder.Total(),
			Capacity: opts.Recorder.Capacity(),
			Requests: opts.Recorder.Slowest(limit),
		})
	})
	if opts.Pprof {
		// Explicit registrations instead of the package's DefaultServeMux
		// side effects, so pprof stays off this mux unless asked for.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Handler returns an http.Handler serving just /metrics and /healthz —
// the pre-flight-recorder surface, kept for embedders that only have a
// registry.
func Handler(reg *Registry) http.Handler {
	return NewHandler(HandlerOptions{Registry: reg})
}

// ListenAndServe binds addr (e.g. ":9400") and serves the registry until
// Close. It returns once the listener is bound, so a scrape immediately
// after return succeeds.
func ListenAndServe(addr string, reg *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: binding metrics listener: %w", err)
	}
	s := &Server{
		listener: ln,
		srv: &http.Server{
			Handler:           Handler(reg),
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go func() {
		// ErrServerClosed after Close is the normal shutdown path; any
		// other error means the exporter died, which the sim run should
		// not die with.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.listener.Addr().String() }

// URL returns the scrape URL for the metrics endpoint.
func (s *Server) URL() string {
	host, port, err := net.SplitHostPort(s.Addr())
	if err != nil {
		return "http://" + s.Addr() + "/metrics"
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "localhost"
	}
	return fmt.Sprintf("http://%s/metrics", net.JoinHostPort(host, port))
}

// Close stops serving and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
