package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"
)

// Version is the build identifier reported by every /debug/status
// endpoint. Overridable at link time:
//
//	go build -ldflags "-X repro/internal/obs.Version=$(git rev-parse --short HEAD)"
var Version = "dev"

// DebugConfig wires the observability surfaces into one debug server.
// Any field may be nil; the corresponding endpoint then serves an
// empty document.
type DebugConfig struct {
	// Component names the process ("renderserver", "displaydaemon",
	// "viewer", ...) in /debug/status.
	Component string
	// Registry backs /metrics (Prometheus text format) and the
	// "metrics" section of /debug/status.
	Registry *Registry
	// Tracer backs /debug/trace (Chrome trace-event JSON of the live
	// span ring buffer).
	Tracer *Tracer
	// Status, when set, contributes the "status" section of
	// /debug/status — a JSON-marshalable component snapshot (daemon
	// stats, broker client sessions, ...).
	Status func() any
	// Frames, when set, serves /debug/frames — the frame-provenance
	// ring buffer dump. Declared as a generic handler (rather than
	// *provenance.Log) to keep obs free of upward imports.
	Frames http.Handler
}

// NewDebugMux builds the debug HTTP handler: /metrics, /debug/status,
// /debug/trace, and (when provenance is wired) /debug/frames.
func NewDebugMux(cfg DebugConfig) *http.ServeMux {
	started := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/status", func(w http.ResponseWriter, r *http.Request) {
		doc := map[string]any{
			"component":      cfg.Component,
			"version":        Version,
			"go":             runtime.Version(),
			"time":           time.Now().UTC().Format(time.RFC3339Nano),
			"uptime_seconds": time.Since(started).Seconds(),
			"metrics":        cfg.Registry.Snapshot(),
		}
		if cfg.Status != nil {
			doc["status"] = cfg.Status()
		}
		if cfg.Tracer != nil {
			doc["trace"] = map[string]any{"spans": cfg.Tracer.Len(), "dropped": cfg.Tracer.Dropped()}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(doc)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="trace.json"`)
		if cfg.Tracer == nil {
			fmt.Fprint(w, `{"traceEvents":[]}`)
			return
		}
		_ = cfg.Tracer.WriteChrome(w)
	})
	mux.HandleFunc("/debug/frames", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Frames == nil {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"node":"","events":[]}`)
			return
		}
		cfg.Frames.ServeHTTP(w, r)
	})
	return mux
}

// DebugServer is a running debug HTTP server.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartDebugServer listens on addr (e.g. ":6060" or "127.0.0.1:0")
// and serves the debug mux on a background goroutine.
func StartDebugServer(addr string, cfg DebugConfig) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewDebugMux(cfg)}
	d := &DebugServer{ln: ln, srv: srv}
	go func() { _ = srv.Serve(ln) }()
	return d, nil
}

// Addr returns the server's listen address.
func (d *DebugServer) Addr() net.Addr { return d.ln.Addr() }

// Close shuts the server down.
func (d *DebugServer) Close() error { return d.srv.Close() }
