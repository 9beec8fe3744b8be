package oij

import (
	"net"
	"time"

	"oij/internal/engine"
	"oij/internal/server"
)

// Server serves an online interval join over TCP (see cmd/oijd and the
// examples/serving program); construct one with ListenAndServe.
type Server = server.Server

// ServerClient is the Go client for a Server's wire protocol.
type ServerClient = server.Client

// Admission policies for ServerOptions.Admission: what the server does
// when the ingest path is saturated.
const (
	// AdmissionBlock makes senders wait (the default).
	AdmissionBlock = server.AdmissionBlock
	// AdmissionShedProbes drops probe tuples under pressure; feature
	// requests still wait.
	AdmissionShedProbes = server.AdmissionShedProbes
	// AdmissionReject sheds probes and answers requests with a typed
	// NACK so clients fail fast.
	AdmissionReject = server.AdmissionReject
)

// ServerOptions configures ListenAndServe. The zero Algorithm, Agg and
// Parallel take the same defaults as Options; the zero overload knobs
// leave the corresponding protections at the server package's defaults.
type ServerOptions struct {
	// Algorithm defaults to AlgorithmScaleOIJ.
	Algorithm Algorithm
	// Window is required (its Lateness bounds stream disorder and is
	// passed through to the engine).
	Window Window
	// Agg defaults to Sum.
	Agg AggFunc
	// Parallel is the joiner thread count (default 1).
	Parallel int
	// Mode defaults to OnArrival.
	Mode EmitMode
	// WALPath, when set, appends ingested probes to a write-ahead log so
	// join state survives restarts (see Server.Recover).
	WALPath string
	// WALSync selects WAL durability: "interval" (default), "always", or
	// "none".
	WALSync string
	// Admission selects the overload admission policy: AdmissionBlock
	// (default), AdmissionShedProbes, or AdmissionReject.
	Admission string
	// RequestDeadline bounds how long a feature request may queue before
	// it is answered with a deadline NACK. Zero disables.
	RequestDeadline time.Duration
	// MemCapProbes caps buffered probe state; under pressure the server
	// sheds oldest-window probes first. Zero disables.
	MemCapProbes int64
	// SlowConsumerGrace bounds how long one stalled client may hold up
	// result delivery before its session is evicted (default 5s; must not
	// be negative).
	SlowConsumerGrace time.Duration
	// AdminAddr, when set, serves /metrics, /statusz and /debug/pprof
	// there (use ":0" for an ephemeral port).
	AdminAddr string
}

// ListenAndServe starts a join server on addr (use "127.0.0.1:0" for an
// ephemeral port) and returns it with its bound address. Shut it down with
// Server.Shutdown.
func ListenAndServe(o ServerOptions, addr string) (*Server, net.Addr, error) {
	if o.Algorithm == "" {
		o.Algorithm = AlgorithmScaleOIJ
	}
	srv, err := server.New(server.Config{
		Algorithm: string(o.Algorithm),
		Engine: engine.Config{
			Joiners: o.Parallel,
			Window:  o.Window.spec(),
			Agg:     o.Agg,
			Mode:    o.Mode,
		},
		WALPath:           o.WALPath,
		WALSync:           o.WALSync,
		Admission:         o.Admission,
		RequestDeadline:   o.RequestDeadline,
		MemCapProbes:      o.MemCapProbes,
		SlowConsumerGrace: o.SlowConsumerGrace,
		AdminAddr:         o.AdminAddr,
	})
	if err != nil {
		return nil, nil, err
	}
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, nil, err
	}
	return srv, bound, nil
}

// DialServer connects a client to a join server.
func DialServer(addr string) (*ServerClient, error) {
	return server.Dial(addr)
}
