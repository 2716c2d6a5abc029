// Package admin serves the pipeline's operational plane over HTTP: the
// Prometheus exposition of the metric registry, a JSON statistics dump,
// health and readiness probes backed by the health.Watchdog, recent trace
// spans, and the standard pprof profilers. The server is deliberately
// separate from the data path — it owns its own mux (never the process-wide
// http.DefaultServeMux, which pprof's import side effects would pollute),
// binds its own listener, and carries explicit timeouts so a stuck scrape
// cannot pin a connection forever.
package admin

import (
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"datacron/internal/health"
	"datacron/internal/obs"
	"datacron/internal/obs/export"
	"datacron/internal/obs/slo"
)

// Config wires the server to the observability plane. Snapshot, Statz and
// SLO are required: every surface renders what the pipeline's stats
// snapshot reports. A nil Tracer or Watchdog degrades the matching
// endpoints to empty-but-valid responses.
type Config struct {
	// Addr is the listen address, e.g. ":9090" or "127.0.0.1:0".
	Addr string
	// Registry receives the runtime self-metrics sampled on every /metrics
	// scrape.
	Registry *obs.Registry
	// Snapshot reads the metric state behind /metrics: the pipeline's merged
	// view, main registry plus every shard worker's registry, aggregate and
	// per-shard labelled.
	Snapshot func() obs.Snapshot
	// Tracer backs /traces; nil serves an empty span list.
	Tracer *obs.Tracer
	// Watchdog backs /healthz and /readyz; nil reports always live/ready.
	Watchdog *health.Watchdog
	// Statz returns the /statz document, encoded as JSON.
	Statz func() any
	// SLO returns the freshness objectives' standing behind /slo.
	SLO func() []slo.Status
	// Logger receives serve/shutdown events; nil logs nowhere.
	Logger *slog.Logger
}

// Server is the admin HTTP server. Create with New, then Start; Addr
// reports the bound address (useful with ":0"), Shutdown drains it.
type Server struct {
	cfg     Config
	srv     *http.Server
	log     *slog.Logger
	runtime *obs.RuntimeSampler // refreshed on every /metrics scrape; nil without a registry

	mu sync.Mutex
	ln net.Listener
}

// New builds the server and its routes without binding the listener.
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg,
		log: obs.Component(cfg.Logger, "admin"),
		// Runtime self-metrics (goroutines, heap, GC pauses) live in the
		// admin plane: they are sampled on scrape, so an unscrapped
		// pipeline pays nothing for them.
		runtime: obs.NewRuntimeSampler(cfg.Registry),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{
		Handler: mux,
		// WriteTimeout stays 0: /debug/pprof/profile legitimately streams
		// for ?seconds=N. The header timeout still bounds slow clients.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       time.Minute,
	}
	return s
}

// Start binds the configured address and serves in a background goroutine.
// It returns the bind error synchronously; serve errors after a clean
// Shutdown are swallowed, anything else is logged.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.log.Info("admin server listening", "addr", ln.Addr().String())
	//lint:ignore goroleak joined through http.Server: Stop calls srv.Shutdown, which makes Serve return ErrServerClosed and the goroutine exit
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.log.Error("admin server failed", "err", err)
		}
	}()
	return nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown gracefully drains the server. Safe on a nil server or before
// Start.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	started := s.ln != nil
	s.mu.Unlock()
	if !started {
		return nil
	}
	s.log.Info("admin server shutting down")
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(`datacron admin endpoints:
  /metrics       Prometheus text exposition (v0.0.4)
  /statz         pipeline stats snapshot as JSON
  /healthz       liveness probe (component report as JSON)
  /readyz        readiness probe (component report as JSON)
  /traces        recent trace spans as JSON (?span_tree=1 nests by parent)
  /slo           freshness objectives' standing as JSON
  /debug/pprof/  Go profiler index
`))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Runtime self-metrics are refreshed first so every scrape sees current
	// goroutine/heap/GC readings.
	s.runtime.Sample()
	w.Header().Set("Content-Type", export.ContentType)
	if err := export.WritePrometheus(w, s.cfg.Snapshot()); err != nil {
		s.log.Error("metrics render failed", "err", err)
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.cfg.Statz())
}

// probeBody is the JSON payload of /healthz and /readyz.
type probeBody struct {
	Live       bool            `json:"live"`
	Ready      bool            `json:"ready"`
	Components []health.Result `json:"components,omitempty"`
}

func (s *Server) probe(w http.ResponseWriter, pass bool) {
	status := http.StatusOK
	if !pass {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, probeBody{
		Live:       s.cfg.Watchdog.Live(),
		Ready:      s.cfg.Watchdog.Ready(),
		Components: s.cfg.Watchdog.Report(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.probe(w, s.cfg.Watchdog.Live())
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.probe(w, s.cfg.Watchdog.Ready())
}

// handleTraces serves the flight-recorder ring. The default view is the
// flat span list in completion order, oldest first — the Tracer.Recent
// ordering contract, stable across ring wraparound — with parent IDs and
// attrs included. With ?span_tree=1 the same spans are nested by parent
// linkage instead: each root (a "record" span, or any span whose parent
// fell off the ring) carries its surviving descendants.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	recent := s.cfg.Tracer.Recent()
	if r.URL.Query().Get("span_tree") == "1" {
		trees := export.SpanTrees(recent)
		if trees == nil {
			trees = []*export.SpanJSON{}
		}
		writeJSON(w, http.StatusOK, struct {
			SpanTrees []*export.SpanJSON `json:"spanTrees"`
		}{trees})
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Spans []export.SpanJSON `json:"spans"`
	}{export.JSONSpans(recent)})
}

// handleSLO serves the freshness objectives' standing. Without armed
// objectives the list is empty but the shape is the same, so dashboards
// can always scrape it.
func (s *Server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	objectives := s.cfg.SLO()
	if objectives == nil {
		objectives = []slo.Status{}
	}
	writeJSON(w, http.StatusOK, struct {
		Objectives []slo.Status `json:"objectives"`
	}{objectives})
}

func writeJSON(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(payload)
}
