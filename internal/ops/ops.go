// Package ops is the embedded HTTP observability surface: an always-on
// window into the compliance metrics the paper treats as the cost of GDPR
// — erasure lag, retention-enforcement lag, audit-pipeline pressure —
// alongside the familiar operational vitals (op rates, latency quantiles,
// replication offsets).
//
// It serves four endpoints from one listener (started by
// `gdprkv-server -ops-addr :7071`):
//
//	GET /          embedded auto-refreshing dashboard
//	GET /info      every INFO section as JSON
//	GET /info/{s}  one INFO section as a flat JSON object
//	GET /metrics   Prometheus text exposition (format 0.0.4)
//	GET /events    SSE stream of every INFO section, with the command rate
//
// Every endpoint renders the section registry of the RESP INFO command
// (internal/server/sections.go), where a field with a metric declares its
// family, so the surfaces cannot drift; ops reads no other stats but the
// per-command histograms. Everything is stdlib net/http — the project
// takes no external dependencies.
package ops

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"gdprstore/internal/server"
)

//go:embed dashboard.html
var dashboardHTML []byte

// Server is the HTTP observability server attached to one RESP server.
type Server struct {
	rs   *server.Server
	ln   net.Listener
	hs   *http.Server
	done chan struct{}

	mu     sync.Mutex
	closed bool
}

// Listen starts the ops server on addr (e.g. ":7071" or "127.0.0.1:0"),
// observing rs.
func Listen(addr string, rs *server.Server) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ops: listen: %w", err)
	}
	o := &Server{rs: rs, ln: ln, done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", o.handleDashboard)
	mux.HandleFunc("GET /info", o.handleInfo)
	mux.HandleFunc("GET /info/{section}", o.handleInfo)
	mux.HandleFunc("GET /metrics", o.handleMetrics)
	mux.HandleFunc("GET /events", o.handleEvents)
	o.hs = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go o.hs.Serve(ln)
	return o, nil
}

// Addr returns the listen address.
func (o *Server) Addr() string { return o.ln.Addr().String() }

// Close stops the listener and terminates active streams (SSE clients are
// unblocked via the done channel). Safe to call twice.
func (o *Server) Close() error {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return nil
	}
	o.closed = true
	close(o.done)
	o.mu.Unlock()
	return o.hs.Close()
}

func (o *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write(dashboardHTML)
}

// handleInfo renders INFO sections as JSON. GET /info returns every
// applicable section keyed by name; GET /info/{section} returns that
// section's fields as one flat object (the shape the gdprbench ops
// sampler consumes). Field values stay strings, preserving INFO fidelity.
func (o *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	section := r.PathValue("section")
	snaps, err := o.rs.InfoSnapshot(strings.ToLower(section))
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	if section != "" {
		writeJSON(w, http.StatusOK, fieldsObject(snaps[0]))
		return
	}
	writeJSON(w, http.StatusOK, infoObject(snaps))
}

// sections renders every registered INFO section, applicable or not:
// the numbers /metrics and /events publish.
func (o *Server) sections() (out []server.InfoSnapshot) {
	for _, name := range server.InfoSectionNames() {
		snaps, _ := o.rs.InfoSnapshot(name) // a registered name always renders
		out = append(out, snaps...)
	}
	return out
}

// infoObject keys each section's fields object by the section's name.
func infoObject(snaps []server.InfoSnapshot) map[string]map[string]string {
	out := make(map[string]map[string]string, len(snaps))
	for _, snap := range snaps {
		out[snap.Name] = fieldsObject(snap)
	}
	return out
}

func fieldsObject(snap server.InfoSnapshot) map[string]string {
	m := make(map[string]string, len(snap.Fields))
	for _, f := range snap.Fields {
		m[f.Key] = f.Value
	}
	return m
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
