package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the runtime introspection endpoint (-debug-addr on
// every tool that has one). It serves:
//
//	/debug/vars     expvar-style JSON snapshot of the metrics registry,
//	                the format of TELEMETRY metrics records
//	/debug/events   the live path's event ring as JSONL (the -events
//	                export format; empty when tr is nil)
//	/debug/health   component-provided health/status values as JSON
//	/debug/pprof/   the standard net/http/pprof profile family
//
// Everything is read-only; hitting the endpoint observes the process
// without perturbing the emulation clock.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeDebug starts the endpoint on addr ("127.0.0.1:0" for an
// ephemeral port). reg and tr may be nil (the routes then serve empty
// documents); health maps a status name to a snapshot function
// evaluated per request.
func ServeDebug(addr string, reg *Registry, tr *Tracer, health map[string]func() any) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listen: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.WriteJSON(w)
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		tr.WriteJSONL(w)
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out := make(map[string]any, len(health))
		for name, fn := range health {
			out[name] = fn()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	d := &DebugServer{ln: ln, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go d.srv.Serve(ln)
	return d, nil
}

// Addr returns the endpoint's bound address.
func (d *DebugServer) Addr() string { return d.ln.Addr().String() }

// Close stops the endpoint.
func (d *DebugServer) Close() error {
	if d == nil {
		return nil
	}
	return d.srv.Close()
}
