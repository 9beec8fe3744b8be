package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Admin is the observability HTTP endpoint of a running daemon. It serves
//
//	/metrics       Prometheus text exposition of a family table
//	/statusz       JSON encoding of the same snapshot type
//	/debug/pprof/  the standard Go profiling handlers
//
// plus any extra endpoints the caller registers (the server adds /tracez
// and /debug/flightrecorder), on its own mux (never http.DefaultServeMux,
// so importing this package cannot leak pprof onto an application server).
type Admin struct {
	srv *http.Server
	ln  net.Listener
}

// Endpoint is an extra admin route registered at ServeAdmin time.
type Endpoint struct {
	Path    string
	Handler http.HandlerFunc
}

// ServeAdmin binds addr (use ":0" for an ephemeral port) and serves the
// admin endpoints in a background goroutine. snapshot is invoked once per
// /metrics or /statusz request and must be safe from any goroutine:
// /metrics renders fams over its result, /statusz encodes it as JSON, so
// every document is one point-in-time view. nil disables both endpoints.
func ServeAdmin[S any](addr string, snapshot func() *S, fams []Family[S], extra ...Endpoint) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	if snapshot != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			WritePrometheus(w, fams, snapshot())
		})
		mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(snapshot())
		})
	}
	for _, e := range extra {
		mux.HandleFunc(e.Path, e.Handler)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	a := &Admin{srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}, ln: ln}
	go a.srv.Serve(ln)
	return a, nil
}

// JSONError writes an error as a JSON document so admin-endpoint
// consumers (oijtop, scripts) never have to parse plain-text bodies.
func JSONError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Addr returns the bound address.
func (a *Admin) Addr() net.Addr { return a.ln.Addr() }

// Close stops the admin server, interrupting in-flight scrapes.
func (a *Admin) Close() error { return a.srv.Close() }
