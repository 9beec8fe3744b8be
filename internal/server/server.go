// Package server exposes an online interval join over TCP, modelling the
// OpenMLDB serving path: clients stream probe data continuously and send
// base frames as feature requests; the server answers every base frame
// with its window aggregate over the shared join state.
//
// All sessions feed one engine through a single ingest goroutine (engines
// require a single ingester), so clients share state: a probe pushed by
// one connection is visible to every other connection's requests, exactly
// like rows in a shared feature store. Event time is likewise shared — the
// watermark follows the maximum timestamp over all clients.
//
// Protocol: see package wire. Every base frame is answered with exactly
// one result frame carrying a session-local sequence number (the order the
// session's base frames were received); a flush frame is echoed back once
// all of the session's outstanding requests have been answered.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"oij/internal/control"
	"oij/internal/engine"
	"oij/internal/faultfs"
	"oij/internal/harness"
	"oij/internal/obs"
	"oij/internal/prof"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/wal"
	"oij/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Algorithm is a harness engine variant (default scale-oij).
	Algorithm string
	// Engine carries window, lateness, aggregation, joiners, and mode.
	Engine engine.Config
	// IngestBuffer is the funnel channel depth (default 4096).
	IngestBuffer int
	// ResultBuffer is the per-session outgoing queue depth (default
	// 1024). A session that stops reading first backpressures itself and
	// is then evicted after SlowConsumerGrace, so one stuck client cannot
	// stall the shared engine.
	ResultBuffer int
	// Admission selects what happens when the ingest funnel is full:
	// "block" (default — senders wait, the pre-overload-control
	// behavior), "shed-probes" (drop probe tuples, requests still wait),
	// or "reject" (drop probes and answer requests with a typed NACK so
	// clients fail fast).
	Admission string
	// RequestDeadline bounds how long a base request may wait in the
	// ingest funnel; one that goes stale is answered with a deadline NACK
	// instead of silently queueing into the engine. Zero disables.
	RequestDeadline time.Duration
	// MemCapProbes caps the engine's buffered probe state (an estimate:
	// probes ingested minus probes evicted). Above 75% of the cap the
	// server degrades by shedding probes already in the oldest half of
	// the retention horizon (they expire soonest and contribute least);
	// at the cap it sheds every incoming probe. Zero disables.
	MemCapProbes int64
	// SlowConsumerGrace is how long a result delivery may wait on a
	// session whose outgoing buffer is full before the session is evicted
	// (default 5s; negative disables eviction and restores the legacy
	// block-forever behavior). The same bound is applied as a per-frame
	// write deadline, so a stalled TCP peer cannot wedge the writer.
	SlowConsumerGrace time.Duration
	// StallThreshold is how long a joiner's input ring may block the
	// engine driver before the watchdog reports the joiner as wedged on
	// /statusz (default 1s).
	StallThreshold time.Duration
	// WALPath, when set, appends every ingested probe to a write-ahead
	// log (internal/wal, checksummed frames) and lets Recover rebuild the join
	// state after a restart. The log keeps at most two segments covering
	// the join's retention horizon.
	WALPath string
	// WALSegmentBytes is the rotation threshold (default 64 MiB).
	WALSegmentBytes int64
	// WALSync selects append durability: "interval" (default — fsync on
	// the heartbeat cadence), "always" (fsync before each append returns),
	// or "none" (flush to the OS, never fsync).
	WALSync string
	// WALFS overrides the filesystem the WAL writes through — the fault
	// injection seam of the crash tests. Nil means the real filesystem.
	WALFS faultfs.FS
	// AdminAddr, when set, serves the observability endpoint there:
	// /metrics (Prometheus text), /statusz (JSON), and /debug/pprof.
	// Use ":0" for an ephemeral port (AdminAddr() reports the binding).
	AdminAddr string
	// UtilEpoch is the live utilization sampling epoch (default 1s).
	UtilEpoch time.Duration
	// TraceSampleN enables per-request stage tracing: every Nth admitted
	// base request carries a span through all eight pipeline stages
	// (ingest → queue wait → dispatch → probe → aggregate → emit → WAL
	// append → TCP write), scrapeable at /tracez. Sampling is
	// deterministic (a shared counter, no PRNG); 0 disables, 1 traces
	// every request.
	TraceSampleN int
	// TraceRing bounds the completed-span ring behind /tracez (default
	// 256).
	TraceRing int
	// FlightRing is the per-component flight-recorder ring size (default
	// 512). The recorder itself is always on — it is a few atomic stores
	// per control-plane event, nothing on the data hot path.
	FlightRing int
	// FlightDumpPath, when set, receives an automatic flight-recorder
	// dump (JSON, rate-limited to one per second) whenever an eviction,
	// stall detection, or memory-pressure escalation fires.
	FlightDumpPath string
	// ProfileDir enables the continuous profiler: a background capturer
	// takes short periodic CPU slices plus heap/mutex/block snapshots into
	// a bounded on-disk profile ring there (indexed manifest, temp+rename,
	// count- and size-capped retention), served at /profilez and captured
	// out-of-cycle on incidents (SLO breach, stall, memory pressure,
	// evictions) next to the flight dump. Empty disables profiling.
	ProfileDir string
	// ProfilePeriod is the capture duty cycle (default 60s) and
	// ProfileCPUSlice the CPU slice length per cycle (default 2s; must be
	// shorter than the period — the ratio bounds profiling overhead).
	ProfilePeriod   time.Duration
	ProfileCPUSlice time.Duration
	// ProfileRetain caps how many profiles the ring keeps (default 32).
	ProfileRetain int
	// ProfileFS overrides the profile ring's filesystem (fault-injection
	// tests); nil uses the real one.
	ProfileFS faultfs.FS
	// HotKeysK is the per-joiner slot count of the SpaceSaving hot-key
	// sketches on the ingest path (default 16; negative disables hot-key
	// analytics). Any key above a 1/K share of its joiner's stream is
	// guaranteed resident; memory is K entries per joiner per stream.
	HotKeysK int
	// SLOWindow is the trailing window /healthz burn rates are computed
	// over (default 30s). The window must fit the finest timeline tier
	// (5 minutes at defaults).
	SLOWindow time.Duration
	// SLOP99 marks the server unhealthy while the window-averaged
	// interval p99 request latency exceeds it. Zero disables the
	// dimension; all-zero SLO thresholds make /healthz a plain liveness
	// probe.
	SLOP99 time.Duration
	// SLOShedRate marks the server unhealthy while shed/NACK events per
	// second (admission sheds + rejects + deadline NACKs + memory-guard
	// sheds), window-averaged, exceed it. Zero disables.
	SLOShedRate float64
	// SLOWatermarkLag marks the server unhealthy while the
	// window-averaged watermark lag exceeds it. Zero disables.
	SLOWatermarkLag time.Duration
	// SLOMemLevel marks the server unhealthy while any sample in the
	// window sits at or above this memory-pressure rung (1 or 2). Zero
	// disables.
	SLOMemLevel int
	// ReplListenAddr, when set, serves this node's WAL to replication
	// standbys there (requires WALPath). Use ":0" for an ephemeral port
	// (ReplAddr reports the binding). On a node also configured with
	// StandbyOf the listener starts only at promotion.
	ReplListenAddr string
	// StandbyOf, when set, runs this node as a hot standby of the primary
	// at that address (requires WALPath): it applies the primary's WAL
	// stream into its own log and engine and answers every client request
	// with a not-primary NACK until promoted.
	StandbyOf string
	// ReplLease is the failure-detection budget D for automatic failover:
	// the primary heartbeats every D/4 and self-fences after 3D/4 without
	// a standby ack; the standby promotes itself after hearing nothing for
	// D. Zero defaults to 3s when replication is configured; negative
	// disables automatic failover and fencing (replication still streams).
	ReplLease time.Duration
	// MaxReplLag, when positive, records a lag_exceeded flight event (and
	// an incident dump) whenever the un-acked suffix of the primary's log
	// exceeds this many bytes.
	MaxReplLag int64
	// Control configures the adaptive self-tuning controller. When
	// enabled, the engine's goroutine pool is sized to Control.MaxJoiners
	// (Engine.Joiners becomes the boot *active* count) and the controller
	// retunes active joiners, admission policy, trace sampling, and the
	// soft memory watermark live from the sampler epoch loop. A zero value
	// leaves every knob static, exactly as configured.
	Control control.Config
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = harness.ScaleOIJ
	}
	if c.IngestBuffer <= 0 {
		c.IngestBuffer = 4096
	}
	if c.ResultBuffer <= 0 {
		c.ResultBuffer = 1024
	}
	if c.Engine.WatermarkEvery <= 0 {
		// Serving favours promptness over amortization: watermark per
		// tuple, so low-rate request streams finalize without waiting
		// for a 256-tuple batch. High-rate deployments raise this.
		c.Engine.WatermarkEvery = 1
	}
	if c.UtilEpoch <= 0 {
		c.UtilEpoch = time.Second
	}
	if c.Admission == "" {
		c.Admission = AdmissionBlock
	}
	if c.SlowConsumerGrace == 0 {
		c.SlowConsumerGrace = 5 * time.Second
	}
	if c.StallThreshold <= 0 {
		c.StallThreshold = time.Second
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	if c.FlightRing <= 0 {
		c.FlightRing = 512
	}
	if c.HotKeysK == 0 {
		c.HotKeysK = 16
	}
	if c.SLOWindow <= 0 {
		c.SLOWindow = 30 * time.Second
	}
	if (c.ReplListenAddr != "" || c.StandbyOf != "") && c.ReplLease == 0 {
		c.ReplLease = 3 * time.Second
	}
	// Busy-time tracking feeds the live utilization gauges; its cost is
	// two clock reads per joiner batch, not per tuple.
	c.Engine.TrackBusy = true
	c.Engine = c.Engine.WithDefaults()
	return c
}

// Admission policy names (Config.Admission).
const (
	AdmissionBlock      = "block"
	AdmissionShedProbes = "shed-probes"
	AdmissionReject     = "reject"
)

// parseAdmission validates an admission policy name.
func parseAdmission(s string) (string, error) {
	switch s {
	case AdmissionBlock, AdmissionShedProbes, AdmissionReject:
		return s, nil
	}
	return "", fmt.Errorf("unknown admission policy %q (want %s, %s or %s)",
		s, AdmissionBlock, AdmissionShedProbes, AdmissionReject)
}

// defaultMemSoftPct is the boot soft memory-guard rung: the percent of
// MemCapProbes at which old-half probe shedding starts (the historical
// hard-coded 75%). The controller tightens it under sustained hard
// pressure and restores it on recovery.
const defaultMemSoftPct = 75

// admissionLevelOf maps a policy name to its control ladder level.
func admissionLevelOf(policy string) int {
	switch policy {
	case AdmissionShedProbes:
		return control.AdmissionShed
	case AdmissionReject:
		return control.AdmissionReject
	default:
		return control.AdmissionBlock
	}
}

// pendingBase routes a result back to its session.
type pendingBase struct {
	sess     *session
	localSeq uint64
	sp       *trace.Span // nil unless the request was sampled
}

// ingestReq is one unit of work for the ingest goroutine: a probe
// (sess == nil), a base request (sess set), or a flush barrier (flush set;
// routed through the funnel so it observes every base queued before it).
type ingestReq struct {
	t        wire.Tuple
	sess     *session
	localSeq uint64    // session-local sequence, assigned by the reader
	enq      time.Time // when the request entered the funnel
	flush    bool
	sp       *trace.Span // nil unless the request was sampled
	// Replication control flow, marshalled through the funnel so the
	// single-ingester rule covers the standby apply path too: replFrame is
	// one verbatim primary WAL frame to apply; promote flips this standby
	// to primary (enqueued only after the link loop has fully stopped).
	replFrame []byte
	promote   bool
}

// Server is a running join service.
type Server struct {
	cfg Config
	eng engine.Engine

	ln     net.Listener
	ingest chan ingestReq

	mu       sync.Mutex
	pending  map[uint64]pendingBase // engine (global) seq -> session route
	sessions map[*session]struct{}
	closed   bool

	nextGlobal uint64
	served     atomic.Int64
	wg         sync.WaitGroup // ingest + accept loops
	sessWG     sync.WaitGroup // session goroutines

	// Overload-control state. probesIngested counts every probe handed to
	// the engine (network + WAL recovery), so probesIngested − Evicted
	// estimates the buffered probe state the memory guard caps. memLevel
	// is the current degradation rung: 0 normal, 1 shedding oldest-window
	// probes, 2 shedding all probes.
	probesIngested atomic.Int64
	memLevel       atomic.Int32
	retention      tuple.Time // probe relevance horizon in event time

	// Live-tunable overload knobs. Sessions and the ingest loop read these
	// per event; the controller (sampler goroutine) and /controlz overrides
	// store them, so every knob the controller owns is an atomic rather
	// than a cfg field. admission holds a control.Admission* level,
	// memSoftPct the soft memory-guard rung as a percent of MemCapProbes,
	// and resizeReq marshals a pending active-joiner target to the ingest
	// loop (engines only allow Resize from the driver goroutine); 0 means
	// no resize pending.
	admission  atomic.Int32
	memSoftPct atomic.Int32
	resizeReq  atomic.Int32
	ctl        *control.Controller

	// repl is the replication state machine (nil when neither
	// ReplListenAddr nor StandbyOf is configured: replication off costs
	// the hot path one nil check).
	repl *replState

	wal          *wal.Writer
	walErrs      atomic.Int64
	walRecovered atomic.Int64
	walSkipped   atomic.Int64
	walTruncated atomic.Int64
	started      bool

	// tracer samples per-request spans; flight is the always-on event
	// recorder. lastWALNS is the duration of the most recent probe WAL
	// append the ingest loop observed (written only when tracing is
	// enabled) — a sampled request reports it as its wal_append stage, the
	// durability cost sitting in the pipeline when the request crossed it.
	tracer      *trace.Tracer
	flight      *trace.Flight
	lastWALNS   atomic.Int64
	stallActive atomic.Bool

	// prof is the continuous profiler (nil when ProfileDir is unset; every
	// method is nil-safe so incident paths call it unconditionally).
	prof *prof.Capturer

	o           *serverObs
	slo         *sloEvaluator
	admin       *obs.Admin
	stopSampler chan struct{}
}

// New builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Engine.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if _, err := parseAdmission(cfg.Admission); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	// With the controller enabled on a resizable engine, the goroutine
	// pool is sized to the scaling ceiling up front (rings and workers are
	// never added after Start); the configured joiner count becomes the
	// boot *active* count and the engine is narrowed to it below, before
	// any goroutine exists.
	bootJoiners := cfg.Engine.Joiners
	if cfg.Control.Enabled {
		if cfg.Control.MaxJoiners <= 0 || cfg.Control.MaxJoiners < bootJoiners {
			cfg.Control.MaxJoiners = bootJoiners
		}
		if cfg.Algorithm == harness.ScaleOIJ && cfg.Control.MaxJoiners > cfg.Engine.Joiners {
			cfg.Engine.Joiners = cfg.Control.MaxJoiners
			if err := cfg.Engine.Validate(); err != nil {
				return nil, fmt.Errorf("server: controller pool: %w", err)
			}
		}
	}
	s := &Server{
		cfg:         cfg,
		ingest:      make(chan ingestReq, cfg.IngestBuffer),
		pending:     map[uint64]pendingBase{},
		sessions:    map[*session]struct{}{},
		stopSampler: make(chan struct{}),
		tracer:      trace.NewTracer(cfg.TraceSampleN, cfg.TraceRing),
		flight:      trace.NewFlight(cfg.FlightRing, cfg.FlightDumpPath),
	}
	// The engine's transport feeds watermark advances into the recorder.
	cfg.Engine.Flight = s.flight
	s.cfg.Engine.Flight = s.flight
	eng, err := harness.Build(cfg.Algorithm, cfg.Engine, serverSink{s})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	s.retention = cfg.Engine.Window.Len() + cfg.Engine.Window.Lateness
	s.slo = newSLOEvaluator(s)
	s.admission.Store(int32(admissionLevelOf(cfg.Admission)))
	s.memSoftPct.Store(defaultMemSoftPct)
	if cfg.Control.Enabled {
		// Narrow the pool to the boot active count before Start (no
		// goroutines exist yet, so the driver-only rule is trivially
		// met). An engine that cannot resize keeps its full pool and the
		// controller runs without the joiner actuator — admission, trace,
		// and memory rules still apply.
		active := cfg.Engine.Joiners
		var resize func(int) bool
		if rz, ok := eng.(engine.Resizer); ok && rz.Resize(bootJoiners) {
			active = bootJoiners
			resize = func(n int) bool {
				// Marshal to the ingest loop: Resize is driver-only and
				// the sampler goroutine is calling. The loop applies the
				// newest pending target before its next unit of work.
				s.resizeReq.Store(int32(n))
				return true
			}
		}
		cc := cfg.Control
		if cc.P99Target == 0 {
			cc.P99Target = cfg.SLOP99
		}
		s.ctl = control.New(cc, control.Boot{
			Joiners:      active,
			Admission:    admissionLevelOf(cfg.Admission),
			TraceSampleN: cfg.TraceSampleN,
			MemSoftPct:   defaultMemSoftPct,
		}, control.Actuators{
			ResizeJoiners:  resize,
			SetAdmission:   func(l int) { s.admission.Store(int32(l)) },
			SetTraceSample: func(n int) { s.tracer.SetSampleN(n) },
			SetMemSoftPct:  func(p int) { s.memSoftPct.Store(int32(p)) },
		}, s.flight)
	}
	if cfg.ReplListenAddr != "" || cfg.StandbyOf != "" {
		if cfg.WALPath == "" {
			return nil, errors.New("server: replication requires a WAL (set WALPath)")
		}
		s.repl = newReplState(s, cfg)
	}
	if cfg.ProfileDir != "" {
		// Built before newServerObs so the profiling gauges it registers
		// are visible to the collector snapshot.
		pc, err := prof.New(prof.Config{
			Dir:      cfg.ProfileDir,
			Period:   cfg.ProfilePeriod,
			CPUSlice: cfg.ProfileCPUSlice,
			Retain:   cfg.ProfileRetain,
			FS:       cfg.ProfileFS,
			Flight:   s.flight,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.prof = pc
	}
	s.o = newServerObs(s, cfg.Engine.Joiners)
	if cfg.WALPath != "" {
		mode, err := wal.ParseSync(cfg.WALSync)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		w := cfg.Engine.Window
		s.wal, err = wal.Open(cfg.WALPath, wal.Options{
			FS:           cfg.WALFS,
			SegmentBytes: cfg.WALSegmentBytes,
			Retention:    2*w.Len() + w.Lateness,
			Sync:         mode,
			// A standby's log mirrors the primary's, so its slot offsets
			// must stay stable: rotation waits for promotion.
			Standby: cfg.StandbyOf != "",
			// A source needs the feed attached before the first append so
			// slot accounting and the tail ring agree; a standby with a
			// listener gets it now too (the listener starts at promotion).
			Feed:   cfg.ReplListenAddr != "",
			Flight: s.flight,
			Alloc:  func(objs, bytes int64) { s.o.countAlloc(trace.StageWALAppend, objs, bytes) },
		})
		if err != nil {
			return nil, err
		}
		// Bytes cut while sanitizing the current segment count as
		// truncated even if Recover is never called.
		s.walTruncated.Add(s.wal.Sanitized())
	}
	if s.repl != nil {
		// A standby's durable position (which primary log, at which base
		// slot) lives in the replstate file beside the WAL.
		if cfg.StandbyOf != "" {
			id, base, err := s.wal.LoadReplState()
			if err != nil {
				return nil, fmt.Errorf("server: %w", err)
			}
			s.repl.upstreamID.Store(id)
			s.repl.replBase.Store(base)
		}
		if cfg.ReplListenAddr != "" {
			id, err := wal.NewID()
			if err != nil {
				return nil, fmt.Errorf("server: wal id: %w", err)
			}
			s.repl.selfID.Store(id)
		}
		// The highest epoch stamped in the recovered log is this node's
		// fencing epoch — a zombie restarting after a failover announces
		// its staleness with it.
		s.repl.epoch.Store(s.wal.Epoch())
	}
	return s, nil
}

// FlightRecorder exposes the server's always-on event recorder so embedding
// processes can route their own components (e.g. a client-side circuit
// breaker in tests) into the same timeline.
func (s *Server) FlightRecorder() *trace.Flight { return s.flight }

// startEngine starts the engine exactly once.
func (s *Server) startEngine() {
	if !s.started {
		s.started = true
		s.eng.Start()
	}
}

// Recover replays the write-ahead log into the engine, rebuilding the
// probe state a previous process had buffered. Call before Listen; returns
// the number of probes recovered. Recovery is salvage-oriented: a torn
// tail (crash mid-write) is truncated and checksum-failed frames are
// skipped, with both outcomes counted in WALStats and /metrics. Without a
// configured WALPath it is a no-op.
func (s *Server) Recover() (int, error) {
	if s.wal == nil {
		return 0, nil
	}
	s.startEngine()
	st, err := s.wal.Replay(func(t wire.Tuple) {
		s.probesIngested.Add(1)
		s.eng.Ingest(tuple.Tuple{TS: t.TS, Key: t.Key, Val: t.Val, Side: tuple.Probe})
	})
	s.walRecovered.Add(st.Recovered)
	s.walSkipped.Add(st.Skipped)
	s.walTruncated.Add(st.Truncated)
	return int(st.Recovered), err
}

// serverSink routes engine results back to the issuing session.
type serverSink struct{ s *Server }

// SpanFor implements engine.StageRecorder: joiners look up the sampled
// span for the base request they are processing (nil for the unsampled
// overwhelming majority — with tracing off this is a single branch).
func (k serverSink) SpanFor(baseSeq uint64) *trace.Span {
	return k.s.tracer.Lookup(baseSeq)
}

// Emit implements engine.Sink.
func (k serverSink) Emit(joiner int, r tuple.Result) {
	k.s.o.results.Shard(joiner).Inc()
	k.s.mu.Lock()
	p, ok := k.s.pending[r.BaseSeq]
	if ok {
		delete(k.s.pending, r.BaseSeq)
	}
	k.s.mu.Unlock()
	if !ok {
		return // session gone
	}
	p.sess.deliver(wire.Result{
		Seq:     p.localSeq,
		TS:      r.BaseTS,
		Key:     r.Key,
		Agg:     r.Agg,
		Matches: r.Matches,
	}, p.sp)
}

// Listen starts serving on addr and returns the bound address (useful with
// ":0"). Serve loops run in background goroutines; call Shutdown to stop.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := s.Serve(ln); err != nil {
		return nil, err
	}
	return ln.Addr(), nil
}

// Serve starts serving on an already-bound listener (Listen is the common
// TCP wrapper). It takes ownership of ln: Shutdown closes it.
func (s *Server) Serve(ln net.Listener) error {
	s.ln = ln
	s.startEngine()
	if s.cfg.AdminAddr != "" {
		admin, err := obs.ServeAdmin(s.cfg.AdminAddr, s.o.reg, func() any { return s.Statusz() },
			obs.Endpoint{Path: "/tracez", Handler: s.serveTracez},
			obs.Endpoint{Path: "/debug/flightrecorder", Handler: s.serveFlightRecorder},
			obs.Endpoint{Path: "/timeline", Handler: s.serveTimeline},
			obs.Endpoint{Path: "/healthz", Handler: s.serveHealthz},
			obs.Endpoint{Path: "/controlz", Handler: s.serveControlz},
			obs.Endpoint{Path: "/profilez", Handler: s.serveProfilez},
		)
		if err != nil {
			ln.Close()
			return fmt.Errorf("server: admin endpoint: %w", err)
		}
		s.admin = admin
	}
	if s.repl != nil {
		if err := s.repl.start(); err != nil {
			ln.Close()
			if s.admin != nil {
				s.admin.Close()
			}
			return fmt.Errorf("server: replication: %w", err)
		}
	}
	s.wg.Add(3)
	go s.ingestLoop()
	go s.acceptLoop()
	go s.samplerLoop()
	return nil
}

// serveTracez renders the completed-span ring: JSON by default, the Chrome
// trace-event format with ?format=chrome (load into speedscope/Perfetto).
func (s *Server) serveTracez(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		s.tracer.WriteChromeTrace(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.tracer.WriteTracez(w)
}

// serveFlightRecorder renders the flight recorder's event timeline on
// demand (the same document the incident auto-dump writes to disk).
func (s *Server) serveFlightRecorder(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteJSON(w, "on-demand")
}

// serveTimeline renders the telemetry timeline: every registered series at
// the requested resolution. ?series=a,b selects series, ?res= selects a
// retention tier (1s, 10s, 1m), ?since= drops points before a unix second.
func (s *Server) serveTimeline(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var series []string
	if v := q.Get("series"); v != "" {
		series = strings.Split(v, ",")
	}
	var since int64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			httpJSONError(w, fmt.Sprintf("bad since %q: %v", v, err), http.StatusBadRequest)
			return
		}
		since = n
	}
	doc, err := s.o.timeline.Query(series, q.Get("res"), since)
	if err != nil {
		httpJSONError(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// serveProfilez exposes the continuous profiler's ring (manifest, profile
// fetch, merged windows). 404 when profiling is disabled.
func (s *Server) serveProfilez(w http.ResponseWriter, r *http.Request) {
	if s.prof == nil {
		httpJSONError(w, "profiling disabled (start with a profile dir)", http.StatusNotFound)
		return
	}
	s.prof.ServeHTTP(w, r)
}

// incident routes one incident signal to both forensic sinks: the flight
// recorder's auto-dump (the control-plane timeline) and the profiler's
// out-of-cycle capture (where the cycles went during the bad minute). Both
// are rate-limited, asynchronous, and nil-safe.
func (s *Server) incident(reason string) {
	s.flight.AutoDump(reason)
	s.prof.CaptureNow(reason)
}

// httpJSONError writes an error as a JSON document so /timeline consumers
// (oijtop, scripts) never have to parse plain-text bodies.
func httpJSONError(w http.ResponseWriter, msg string, code int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// AdminAddr returns the bound admin address, or nil when no admin endpoint
// was configured or the server is not listening yet.
func (s *Server) AdminAddr() net.Addr {
	if s.admin == nil {
		return nil
	}
	return s.admin.Addr()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		sess := newSession(s, conn)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.sessWG.Add(1)
		go func() {
			defer s.sessWG.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
	}
}

// ingestLoop is the single goroutine allowed to call Engine.Ingest. While
// the input is idle it heartbeats the engine so watermark-mode windows
// keep finalizing without fresh tuples (a request stream can go quiet with
// answers still pending).
func (s *Server) ingestLoop() {
	defer s.wg.Done()
	beat := time.NewTicker(2 * time.Millisecond)
	defer beat.Stop()
	for {
		// Apply any pending live resize before the next unit of work:
		// engines allow Resize only from the driver goroutine, and this
		// loop is the driver. Swap-to-zero keeps only the newest target
		// when the controller outpaces the loop.
		if n := s.resizeReq.Swap(0); n != 0 {
			if rz, ok := s.eng.(engine.Resizer); ok {
				rz.Resize(int(n))
			}
		}
		var req ingestReq
		var ok bool
		select {
		case req, ok = <-s.ingest:
			if !ok {
				return
			}
		case <-beat.C:
			s.eng.Heartbeat()
			if s.wal != nil {
				// Durability rides the heartbeat cadence (and fsyncs
				// here in the default "interval" sync mode).
				if err := s.wal.Heartbeat(); err != nil {
					s.walErrs.Add(1)
				}
			}
			continue
		}
		if req.replFrame != nil {
			s.applyReplFrame(req.replFrame)
			continue
		}
		if req.promote {
			s.applyPromote()
			continue
		}
		if req.flush {
			// Every base this session sent before the flush frame
			// has been registered by now; ack once they are all
			// answered.
			go req.sess.ackFlush()
			continue
		}
		// Role gate at the funnel, not just admission: a primary fenced
		// with requests already queued must not ack them (the promoted
		// side's log is the history now), and a fenced node extending its
		// own WAL with probes would fork that history.
		if code, refused := s.replRefusal(); refused {
			s.o.replRefused.Inc()
			if req.sess != nil {
				req.sess.sendNackNonblock(req.localSeq, code)
				s.tracer.Abandon(req.sp)
			}
			continue
		}
		t := tuple.Tuple{TS: req.t.TS, Key: req.t.Key, Val: req.t.Val}
		if req.sess != nil {
			if d := s.cfg.RequestDeadline; d > 0 && time.Since(req.enq) > d {
				// The request went stale waiting in the funnel:
				// answer with a deadline NACK instead of queueing
				// work whose answer nobody is waiting for.
				s.o.deadlineRejected.Inc()
				s.flight.Record(trace.CompAdmission, trace.EvDeadlineNack,
					req.localSeq, uint64(time.Since(req.enq)))
				req.sess.sendNackNonblock(req.localSeq, wire.NackDeadline)
				s.tracer.Abandon(req.sp)
				continue
			}
			t.Side = tuple.Base
			t.Seq = s.nextGlobal
			t.Arrival = time.Now()
			s.nextGlobal++
			s.mu.Lock()
			s.pending[t.Seq] = pendingBase{sess: req.sess, localSeq: req.localSeq, sp: req.sp}
			s.mu.Unlock()
			req.sess.outstanding.Add(1)
			s.o.bases.Inc()
			if s.o.hotBases != nil {
				s.o.hotBases.Observe(uint64(t.Key))
			}
			if sp := req.sp; sp != nil {
				sp.Add(trace.StageQueueWait, time.Since(req.enq))
				// The request's durability cost is the WAL append most
				// recently in its path (base frames are not logged).
				sp.Add(trace.StageWALAppend, time.Duration(s.lastWALNS.Load()))
				sp.Seq = t.Seq
				s.tracer.Register(sp)
				sp.StampPushed()
			}
		} else {
			t.Side = tuple.Probe
			if s.memGuardSheds(req.t.TS) {
				continue
			}
			s.o.probes.Inc()
			s.probesIngested.Add(1)
			if s.o.hotProbes != nil {
				s.o.hotProbes.Observe(uint64(t.Key))
			}
			if s.wal != nil {
				var t0 time.Time
				traced := s.tracer.Enabled()
				if traced {
					t0 = time.Now()
				}
				if err := s.wal.Append(req.t); err != nil {
					// Durability degraded, availability kept:
					// log once per incident via the error frame
					// path is overkill here; the counter lets
					// operators alert on it.
					s.walErrs.Add(1)
					s.flight.Record(trace.CompWAL, trace.EvWALError, uint64(s.walErrs.Load()), 0)
				}
				if traced {
					s.lastWALNS.Store(int64(time.Since(t0)))
				}
			}
		}
		s.eng.Ingest(t)
		s.served.Add(1)
	}
}

// bufferedProbes estimates the engine's live probe state: every probe
// handed to the engine minus every probe it has expired. Both sides are
// atomics, so the estimate is cheap enough to check per ingested probe.
func (s *Server) bufferedProbes() int64 {
	return s.probesIngested.Load() - s.eng.Stats().Evicted.Load()
}

// memGuardSheds is the memory watermark guard: it decides, per incoming
// probe, whether the tuple is shed to keep buffered state under
// MemCapProbes. Degradation is tiered — above the soft rung (memSoftPct
// percent of the cap, boot 75%, tightened live by the controller) only
// probes already in the oldest half of the retention horizon are shed
// (they expire soonest and contribute to the fewest future windows); at
// the cap every probe is shed until eviction catches up.
func (s *Server) memGuardSheds(ts tuple.Time) bool {
	memCap := s.cfg.MemCapProbes
	if memCap <= 0 {
		return false
	}
	buffered := s.bufferedProbes()
	switch {
	case buffered >= memCap:
		s.setMemLevel(2, buffered)
		s.o.memShedProbes.Inc()
		return true
	case buffered >= memCap*int64(s.memSoftPct.Load())/100:
		s.setMemLevel(1, buffered)
		if in := s.introspect(); in != nil && s.retention > 0 {
			if maxTS := in.MaxEventTS(); ts <= maxTS-s.retention/2 {
				s.o.memShedProbes.Inc()
				return true
			}
		}
		return false
	default:
		s.setMemLevel(0, buffered)
		return false
	}
}

// setMemLevel publishes the memory-pressure rung and, on a transition,
// records it to the flight recorder (escalations also trigger an incident
// dump). Ingest-loop only, so the load/store pair does not race.
func (s *Server) setMemLevel(level int32, buffered int64) {
	if s.memLevel.Load() == level {
		return
	}
	s.memLevel.Store(level)
	s.flight.Record(trace.CompMemory, trace.EvMemLevel, uint64(level), uint64(buffered))
	if level > 0 {
		s.incident("mem-pressure")
	}
}

// Shutdown stops accepting, disconnects every session, flushes the engine,
// and waits for all goroutines. Results still pending when their session
// disconnects are dropped — a client that wants every answer sends a flush
// frame and waits for the ack before closing.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()

	if s.ln != nil {
		s.ln.Close()
	}
	// Unblock every session reader (the ingest loop keeps draining, so a
	// reader blocked on the funnel progresses too), wait for them, and
	// only then close the funnel — no sender may remain when it closes.
	for _, sess := range sessions {
		sess.conn.SetReadDeadline(time.Now())
	}
	s.sessWG.Wait()
	// Replication stops after the sessions (its goroutines are the last
	// legal funnel senders) and before the funnel closes.
	if s.repl != nil {
		s.repl.stopAll()
	}
	close(s.ingest)
	close(s.stopSampler)
	// The ingest loop keeps pushing while it drains the closed funnel, and
	// the rings are single-producer — it must be gone before Drain's final
	// broadcast touches them.
	s.wg.Wait()
	s.eng.Drain()
	if s.admin != nil {
		s.admin.Close()
	}
	if s.wal != nil {
		s.wal.Close()
	}
	// Last: a capture in flight may still be stamping flight sequences.
	s.prof.Close()
}

// WALErrors reports append failures since startup (0 without a WAL).
func (s *Server) WALErrors() int64 { return s.walErrs.Load() }

// WALStats reports recovery outcomes since startup: frames replayed into
// the engine, checksum-failed frames skipped, and torn or unsalvageable
// bytes truncated from segment tails. All zero without a WAL.
func (s *Server) WALStats() (recovered, skipped, truncatedBytes int64) {
	return s.walRecovered.Load(), s.walSkipped.Load(), s.walTruncated.Load()
}

// Served returns the number of tuples ingested over the network.
func (s *Server) Served() int64 { return s.served.Load() }

// Stats exposes the underlying engine statistics.
func (s *Server) Stats() *engine.Stats { return s.eng.Stats() }

// outMsg is one queued outgoing frame; sp (only ever set on results)
// carries the request's sampled span to the writer so the emit and
// tcp_write stages are stamped where they happen.
type outMsg struct {
	m  wire.Message
	sp *trace.Span
}

// session is one client connection.
type session struct {
	s    *Server
	conn net.Conn
	out  chan outMsg

	// nextLocal is owned by the session's reader goroutine: local
	// sequences are assigned in frame-arrival order before admission, so
	// a NACKed request still consumes the sequence number the client
	// assigned it and accepted requests stay aligned.
	nextLocal   uint64
	outstanding atomic.Int64

	closeOnce sync.Once
	evicted   atomic.Bool
	done      chan struct{}
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		s:    s,
		conn: conn,
		out:  make(chan outMsg, s.cfg.ResultBuffer),
		done: make(chan struct{}),
	}
}

// deliver queues a result for the writer goroutine. The outstanding
// counter is decremented only after the result is queued, so a flush ack
// can never overtake the final answer it covers.
//
// A session whose buffer is full gets SlowConsumerGrace to drain; if it is
// still full after the grace the session is evicted and the result dropped,
// so one stuck client stalls delivery for at most one grace period instead
// of wedging the engine behind it (grace < 0 restores the legacy blocking
// behavior).
func (se *session) deliver(r wire.Result, sp *trace.Span) {
	defer se.outstanding.Add(-1)
	m := outMsg{m: wire.Message{Kind: wire.TagResult, Result: r}, sp: sp}
	grace := se.s.cfg.SlowConsumerGrace
	if grace < 0 {
		select {
		case se.out <- m:
		case <-se.done:
			se.s.tracer.Abandon(sp)
		}
		return
	}
	select {
	case se.out <- m:
		return
	case <-se.done:
		se.s.tracer.Abandon(sp)
		return
	default:
	}
	timer := time.NewTimer(grace)
	se.s.o.countAlloc(trace.StageEmit, 1, timerAllocBytes)
	defer timer.Stop()
	select {
	case se.out <- m:
	case <-se.done:
		se.s.tracer.Abandon(sp)
	case <-timer.C:
		se.evictSlow()
		se.s.tracer.Abandon(sp)
	}
}

// evictSlow force-closes a session that stopped draining: done stops new
// work and the connection close unblocks both its reader and a writer stuck
// in a send. Two detectors share it — the deliver grace timer and the
// writer's per-frame deadline — so the CAS makes each session count once.
func (se *session) evictSlow() {
	if se.evicted.CompareAndSwap(false, true) {
		se.s.o.slowEvicted.Inc()
		s := se.s
		s.flight.Record(trace.CompSession, trace.EvSlowEviction,
			uint64(s.o.slowEvicted.Load()), 0)
		s.incident("slow-consumer-eviction")
	}
	se.close()
	se.conn.Close()
}

// run services the connection until EOF or error. Teardown order matters:
// the done channel stops new work, the writer drains whatever is already
// queued (results, flush acks, protocol errors) to the still-open
// connection, and only then does the connection close.
func (se *session) run() {
	writerDone := make(chan struct{})
	go se.writeLoop(writerDone)
	defer func() {
		se.close()
		<-writerDone
		se.conn.Close()
	}()

	r := wire.NewReader(se.conn)
	for {
		m, err := r.Read()
		if err != nil {
			return // EOF and deadline errors are normal teardown paths
		}
		switch m.Kind {
		case wire.TagProbe:
			se.admitProbe(m.Tuple)
		case wire.TagBase:
			localSeq := se.nextLocal
			se.nextLocal++
			se.admitBase(m.Tuple, localSeq)
		case wire.TagBaseID:
			// The client chose the request id; the session-local counter
			// tracks past it so plain base frames interleaved on the same
			// session never collide with an explicit id.
			localSeq := m.Tuple.ID
			if localSeq >= se.nextLocal {
				se.nextLocal = localSeq + 1
			}
			se.admitBase(m.Tuple, localSeq)
		case wire.TagFlush:
			se.s.ingest <- ingestReq{sess: se, flush: true}
		default:
			se.sendError(errors.New("unexpected frame from client").Error())
			return
		}
	}
}

// admitProbe applies the admission policy to one probe tuple. Under
// "shed-probes" and "reject" a full funnel drops the probe (counted)
// instead of blocking the reader; under "block" the reader waits, which
// backpressures this client's TCP stream. The policy is read from the
// live atomic, so the controller's ladder steps take effect on the very
// next frame.
func (se *session) admitProbe(t wire.Tuple) {
	if _, refused := se.s.replRefusal(); refused {
		// Standby and fenced nodes take no writes: the replicated log is
		// the only ingest path, so a locally accepted probe would fork it.
		se.s.o.replRefused.Inc()
		return
	}
	req := ingestReq{t: t}
	if se.s.admission.Load() == control.AdmissionBlock {
		se.s.ingest <- req
		return
	}
	select {
	case se.s.ingest <- req:
	default:
		se.s.o.shedProbes.Inc()
		se.s.flight.Record(trace.CompAdmission, trace.EvAdmissionShed,
			uint64(se.s.o.shedProbes.Load()), 0)
	}
}

// admitBase applies the admission policy to one base request. Only the
// "reject" policy refuses requests: a full funnel answers with an overload
// NACK so the client can fail fast and back off; "block" and "shed-probes"
// let the request wait (requests are the product, probes are the fuel).
func (se *session) admitBase(t wire.Tuple, localSeq uint64) {
	if code, refused := se.s.replRefusal(); refused {
		// Typed refusal (not-primary or fenced) so a failover-aware client
		// rotates to the next address instead of timing out.
		se.s.o.replRefused.Inc()
		se.sendNack(localSeq, code)
		return
	}
	req := ingestReq{t: t, sess: se, localSeq: localSeq, enq: time.Now()}
	var t0 time.Time
	if se.s.tracer.Sample() {
		// Tagged at admission: the span rides the request through every
		// stage from here. The ingest stage is this goroutine's own work
		// — admission plus the funnel enqueue.
		req.sp = trace.NewSpan(localSeq, uint64(t.Key), int64(t.TS))
		se.s.o.countAlloc(trace.StageIngest, 1, spanAllocBytes)
		t0 = time.Now()
	}
	if se.s.admission.Load() != control.AdmissionReject {
		se.s.ingest <- req
		req.sp.Add(trace.StageIngest, time.Since(t0))
		return
	}
	select {
	case se.s.ingest <- req:
		req.sp.Add(trace.StageIngest, time.Since(t0))
	default:
		se.s.o.rejected.Inc()
		se.s.flight.Record(trace.CompAdmission, trace.EvAdmissionReject,
			uint64(se.s.o.rejected.Load()), 0)
		se.sendNack(localSeq, wire.NackOverload)
		se.s.tracer.Abandon(req.sp)
	}
}

// sendNack queues a NACK from the session's own reader goroutine; a full
// outgoing buffer backpressures the reader like any other frame.
func (se *session) sendNack(seq uint64, code byte) {
	select {
	case se.out <- outMsg{m: wire.Message{Kind: wire.TagNack, Nack: wire.Nack{Seq: seq, Code: code}}}:
	case <-se.done:
	}
}

// sendNackNonblock queues a NACK from the ingest goroutine. It must never
// block — a full session buffer would stall the shared funnel — so a NACK
// that does not fit is dropped and counted; the session is congested and
// headed for eviction anyway, and clients recover via read timeouts.
func (se *session) sendNackNonblock(seq uint64, code byte) {
	select {
	case se.out <- outMsg{m: wire.Message{Kind: wire.TagNack, Nack: wire.Nack{Seq: seq, Code: code}}}:
	default:
		se.s.o.nacksDropped.Inc()
	}
}

// ackFlush waits until the session has no outstanding requests, then
// echoes a flush frame.
func (se *session) ackFlush() {
	for se.outstanding.Load() > 0 {
		select {
		case <-se.done:
			return
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case se.out <- outMsg{m: wire.Message{Kind: wire.TagFlush}}:
	case <-se.done:
	}
}

func (se *session) sendError(msg string) {
	select {
	case se.out <- outMsg{m: wire.Message{Kind: wire.TagError, Err: msg}}:
	case <-se.done:
	}
}

// writeMsg encodes one outgoing frame, bounding the time a stalled TCP
// peer can hold the writer: with a slow-consumer grace configured, every
// frame gets that long to make progress before the write fails.
func (se *session) writeMsg(w *wire.Writer, m wire.Message) error {
	if grace := se.s.cfg.SlowConsumerGrace; grace > 0 {
		se.conn.SetWriteDeadline(time.Now().Add(grace))
	}
	switch m.Kind {
	case wire.TagResult:
		return w.WriteResult(m.Result)
	case wire.TagFlush:
		return w.WriteFlush()
	case wire.TagError:
		return w.WriteError(m.Err)
	case wire.TagNack:
		return w.WriteNack(m.Nack)
	}
	return nil
}

// writeLoop serializes outgoing frames, flushing when the queue drains. A
// write error force-closes the session so its reader does not linger on a
// half-dead connection; a deadline-expired write means the peer stopped
// draining its TCP stream and counts as a slow-consumer eviction.
func (se *session) writeLoop(done chan struct{}) {
	defer close(done)
	fail := func(err error) {
		if errors.Is(err, os.ErrDeadlineExceeded) {
			se.evictSlow()
			return
		}
		se.close()
		se.conn.Close()
	}
	w := wire.NewWriter(se.conn)
	se.s.o.countAlloc(trace.StageTCPWrite, 1, wireWriterAllocBytes)
	// write encodes one frame, stamping a sampled result's last two stages
	// around it: emit (join end → this pickup) before, tcp_write after,
	// then the span is complete and retires to the /tracez ring.
	write := func(om outMsg) error {
		om.sp.StampWriterPickup()
		var t0 time.Time
		if om.sp != nil {
			t0 = time.Now()
		}
		err := se.writeMsg(w, om.m)
		if err == nil && len(se.out) == 0 {
			err = w.Flush()
		}
		if om.sp != nil {
			om.sp.Add(trace.StageTCPWrite, time.Since(t0))
			if err == nil {
				se.s.tracer.Complete(om.sp)
			} else {
				se.s.tracer.Abandon(om.sp)
			}
		}
		return err
	}
	for {
		select {
		case om := <-se.out:
			if err := write(om); err != nil {
				fail(err)
				return
			}
		case <-se.done:
			// Drain anything already queued (results, flush acks,
			// protocol errors), then stop.
			for {
				select {
				case om := <-se.out:
					if err := write(om); err != nil {
						return
					}
				default:
					w.Flush()
					return
				}
			}
		}
	}
}

// close marks the session done; the connection itself is closed by run()
// once the writer has drained.
func (se *session) close() {
	se.closeOnce.Do(func() {
		close(se.done)
	})
}
