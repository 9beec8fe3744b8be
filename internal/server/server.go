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

	"oij/internal/engine"
	"oij/internal/faultfs"
	"oij/internal/harness"
	"oij/internal/obs"
	"oij/internal/prof"
	"oij/internal/queue"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/wal"
	"oij/internal/watermark"
	"oij/internal/wire"
)

// Config configures a Server.
type Config struct {
	// Algorithm is a harness engine variant (default scale-oij).
	Algorithm string
	// Engine carries window, lateness, aggregation, joiners, and mode.
	Engine engine.Config
	// ResultBuffer is the per-session outgoing queue depth in frames
	// (default 1024). A session that stops reading first backpressures
	// itself and is then evicted after SlowConsumerGrace, so one stuck
	// client cannot stall the shared engine.
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
	// (default 5s; must not be negative). The same bound is applied as a
	// deadline on every socket write, so a stalled TCP peer cannot wedge
	// the writer.
	SlowConsumerGrace time.Duration
	// WALPath, when set, appends every ingested probe to a write-ahead
	// log (internal/wal, checksummed frames) and lets Recover rebuild the join
	// state after a restart. The log keeps at most two segments covering
	// the join's retention horizon.
	WALPath string
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
	// D. Zero defaults to 3s when replication is configured; it must not
	// be negative.
	ReplLease time.Duration
	// MaxReplLag, when positive, records a lag_exceeded flight event (and
	// an incident dump) whenever the un-acked suffix of the primary's log
	// exceeds this many bytes.
	MaxReplLag int64

	// ingestBuffer and walSegmentBytes override the funnel depth and the
	// WAL rotation threshold; tests shrink them to reach a full funnel or
	// a rotation quickly. Zero means ingestBuffer and the WAL default.
	ingestBuffer    int
	walSegmentBytes int64
}

const (
	// ingestBuffer is the funnel depth in queued tuples.
	ingestBuffer = 4096
	// stallThreshold is how long a joiner's input ring may block the
	// engine driver before the watchdog reports the joiner as wedged on
	// /statusz.
	stallThreshold = time.Second
	// hotKeysK is the per-joiner slot count of the SpaceSaving hot-key
	// sketches on the ingest path. Any key above a 1/K share of its
	// joiner's stream is guaranteed resident; memory is K entries per
	// joiner per stream.
	hotKeysK = 16
)

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = harness.ScaleOIJ
	}
	if c.ingestBuffer <= 0 {
		c.ingestBuffer = ingestBuffer
	}
	if c.ResultBuffer <= 0 {
		c.ResultBuffer = 1024
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
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	if c.FlightRing <= 0 {
		c.FlightRing = 512
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

// admission is the policy Config.Admission names, parsed once at boot.
type admission uint8

const (
	admitBlock admission = iota
	admitShedProbes
	admitReject
)

// parseAdmission maps an admission policy name to its policy.
func parseAdmission(s string) (admission, error) {
	switch s {
	case AdmissionBlock:
		return admitBlock, nil
	case AdmissionShedProbes:
		return admitShedProbes, nil
	case AdmissionReject:
		return admitReject, nil
	}
	return 0, fmt.Errorf("unknown admission policy %q (want %s, %s or %s)",
		s, AdmissionBlock, AdmissionShedProbes, AdmissionReject)
}

// memSoftPct is the memory guard's soft rung: the percent of MemCapProbes
// at which old-half probe shedding starts.
const memSoftPct = 75

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
	enq      time.Time // when the reader handed the request's batch to the funnel
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

	ln net.Listener
	// funnel carries every session's decoded frames, one batch per
	// handoff, to the single ingest goroutine. Its capacity counts
	// requests, so batching does not change how much it holds.
	funnel *queue.MPSC[ingestReq]
	// emits holds each joiner's results until the joiner's batch ends
	// (serverSink.EndBatch), so a session gets one handoff per batch.
	emits []emitBatch

	// routes maps each registered base's engine seq to its session.
	routes routeRing

	// mu guards sessions and closed; the ingest loop and the joiners
	// never take it.
	mu       sync.Mutex
	sessions map[*session]struct{}
	closed   bool

	served atomic.Int64
	wg     sync.WaitGroup // ingest + accept loops
	sessWG sync.WaitGroup // session goroutines

	// Overload-control state. probesIngested counts every probe handed to
	// the engine (network + WAL recovery), so probesIngested − Evicted
	// estimates the buffered probe state the memory guard caps. memLevel
	// is the current degradation rung: 0 normal, 1 shedding oldest-window
	// probes, 2 shedding all probes.
	probesIngested atomic.Int64
	memLevel       atomic.Int32
	retention      tuple.Time // probe relevance horizon in event time

	// admission is the policy applied to what a full funnel refuses.
	admission admission

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
	policy, err := parseAdmission(cfg.Admission)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.SlowConsumerGrace < 0 || cfg.ReplLease < 0 {
		return nil, fmt.Errorf("server: negative slow-consumer grace %s or replication lease %s", cfg.SlowConsumerGrace, cfg.ReplLease)
	}
	s := &Server{
		cfg:         cfg,
		admission:   policy,
		funnel:      queue.NewMPSC[ingestReq](cfg.ingestBuffer),
		emits:       make([]emitBatch, cfg.Engine.Joiners),
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
	if cfg.ReplListenAddr != "" || cfg.StandbyOf != "" {
		if cfg.WALPath == "" {
			return nil, errors.New("server: replication requires a WAL (set WALPath)")
		}
		s.repl = newReplState(s, cfg)
	}
	if cfg.ProfileDir != "" {
		// Built before newServerObs so the family table includes the
		// profiling families.
		pc, err := prof.New(prof.Config{
			Dir:      cfg.ProfileDir,
			Period:   cfg.ProfilePeriod,
			CPUSlice: cfg.ProfileCPUSlice,
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
			SegmentBytes: cfg.walSegmentBytes,
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

// emitBatch is one joiner's results since its last batch boundary, with
// the scratch EndBatch routes them through. Owned by the goroutine that
// emits as that joiner; padded so neighbouring joiners do not share a
// cache line.
type emitBatch struct {
	results []tuple.Result
	routes  []pendingBase
	frames  []outMsg
	_       [64]byte
}

// Emit implements engine.Sink: it holds the result until the joiner's
// batch ends.
func (k serverSink) Emit(joiner int, r tuple.Result) {
	k.s.o.results.Shard(joiner).Inc()
	b := &k.s.emits[joiner]
	b.results = append(b.results, r)
}

// EndBatch implements engine.BatchSink: it takes each result's route from
// the route ring, without a lock, and hands each session every run of
// consecutive results it owns as one delivery, in emit order. The cost is
// linear in the batch, however many sessions it spans.
func (k serverSink) EndBatch(joiner int) {
	b := &k.s.emits[joiner]
	if len(b.results) == 0 {
		return
	}
	for _, r := range b.results {
		b.routes = append(b.routes, k.s.routes.take(r.BaseSeq))
	}
	for i := range b.routes {
		p := &b.routes[i]
		if p.sess == nil {
			continue
		}
		r := &b.results[i]
		b.frames = append(b.frames, outMsg{m: wire.Message{Kind: wire.TagResult, Result: wire.Result{
			Seq:     p.localSeq,
			TS:      r.BaseTS,
			Key:     r.Key,
			Agg:     r.Agg,
			Matches: r.Matches,
		}}, sp: p.sp})
		if i+1 == len(b.routes) || b.routes[i+1].sess != p.sess {
			p.sess.deliver(b.frames)
			clear(b.frames)
			b.frames = b.frames[:0]
		}
	}
	clear(b.routes)
	b.routes = b.routes[:0]
	b.results = b.results[:0]
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
		admin, err := obs.ServeAdmin(s.cfg.AdminAddr, func() *Status { st := s.Statusz(); return &st }, s.o.families,
			obs.Endpoint{Path: "/tracez", Handler: s.serveTracez},
			obs.Endpoint{Path: "/debug/flightrecorder", Handler: s.serveFlightRecorder},
			obs.Endpoint{Path: "/timeline", Handler: s.serveTimeline},
			obs.Endpoint{Path: "/healthz", Handler: s.serveHealthz},
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
			obs.JSONError(w, fmt.Sprintf("bad since %q: %v", v, err), http.StatusBadRequest)
			return
		}
		since = n
	}
	doc, err := s.o.timeline.Query(series, q.Get("res"), since)
	if err != nil {
		obs.JSONError(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(doc)
}

// serveProfilez exposes the continuous profiler's ring (manifest, profile
// fetch, manual capture). 404 when profiling is disabled.
func (s *Server) serveProfilez(w http.ResponseWriter, r *http.Request) {
	if s.prof == nil {
		obs.JSONError(w, "profiling disabled (start with a profile dir)", http.StatusNotFound)
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
		// Add under mu: Shutdown sets closed under mu before it waits,
		// so every Add it did not refuse happens before its Wait.
		s.sessWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.sessWG.Done()
			sess.run()
			s.mu.Lock()
			delete(s.sessions, sess)
			s.mu.Unlock()
		}()
	}
}

// ingestTake is how many requests the ingest loop takes from the funnel
// per lock acquisition and clock reading.
const ingestTake = 256

// ingestLoop is the single goroutine allowed to call Engine.Ingest. It
// takes the funnel's requests in batches and reads the clock once per
// batch. Whenever it has ingested tuples and then empties the funnel or
// reaches a flush barrier, it heartbeats the engine, so the watermark
// covers every ingested tuple before the loop blocks or a barrier is
// acked; under saturation the engine's own cadence applies. The ticker beats both while the input is idle, so
// watermark-mode windows keep finalizing without fresh tuples (a request
// stream can go quiet with answers still pending), and between batches
// while the funnel never empties, so the WAL's interval fsync keeps its
// cadence under sustained overload.
func (s *Server) ingestLoop() {
	defer s.wg.Done()
	beat := time.NewTicker(2 * time.Millisecond)
	defer beat.Stop()
	run := make([]ingestReq, ingestTake)
	for {
		select {
		case <-s.funnel.Ready():
		case <-beat.C:
			s.beat()
			continue
		}
		ingested := false
		for {
			select {
			case <-beat.C:
				s.beat()
			default:
			}
			n, left, done := s.funnel.Take(run)
			if n > 0 {
				now := time.Now()
				for i := range run[:n] {
					if run[i].flush && ingested {
						// A barrier ack promises a watermark that
						// covers every tuple sent before it.
						s.eng.Heartbeat()
						ingested = false
					}
					ingested = s.ingestOne(&run[i], now) || ingested
				}
				clear(run[:n])
			}
			if done {
				return
			}
			if left == 0 {
				break
			}
		}
		if ingested {
			s.eng.Heartbeat()
		}
	}
}

// beat is the ingest loop's periodic tick: it heartbeats the engine and
// pushes the WAL's buffered frames to the OS (fsyncing them in the default
// "interval" sync mode).
func (s *Server) beat() {
	s.eng.Heartbeat()
	if s.wal != nil {
		if err := s.wal.Heartbeat(); err != nil {
			s.walErrs.Add(1)
		}
	}
}

// ingestOne applies one funnel request at the batch's clock reading now
// and reports whether it handed the engine a tuple.
func (s *Server) ingestOne(req *ingestReq, now time.Time) bool {
	if req.replFrame != nil {
		s.applyReplFrame(req.replFrame)
		return true
	}
	if req.promote {
		s.applyPromote()
		return false
	}
	if req.flush {
		req.sess.flushBarrier()
		return false
	}
	// Role gate at the funnel, not just admission: a primary fenced with
	// requests already queued must not ack them (the promoted side's log
	// is the history now), and a fenced node extending its own WAL with
	// probes would fork that history.
	if code, refused := s.replRefusal(); refused {
		s.o.replRefused.Inc()
		if req.sess != nil {
			req.sess.funnelNack(req.localSeq, code)
			s.tracer.Abandon(req.sp)
		}
		return false
	}
	t := tuple.Tuple{TS: req.t.TS, Key: req.t.Key, Val: req.t.Val}
	if req.sess != nil {
		waited := now.Sub(req.enq)
		if d := s.cfg.RequestDeadline; d > 0 && waited > d {
			// The request went stale waiting in the funnel: answer
			// with a deadline NACK instead of queueing work whose
			// answer nobody is waiting for.
			s.o.deadlineRejected.Inc()
			s.flight.Record(trace.CompAdmission, trace.EvDeadlineNack, req.localSeq, uint64(waited))
			req.sess.funnelNack(req.localSeq, wire.NackDeadline)
			s.tracer.Abandon(req.sp)
			return false
		}
		t.Side = tuple.Base
		t.Seq = s.routes.add(pendingBase{sess: req.sess, localSeq: req.localSeq, sp: req.sp})
		t.Arrival = now
		req.sess.outstanding.Add(1)
		s.o.bases.Inc()
		s.o.hotBases.Observe(uint64(t.Key))
		if sp := req.sp; sp != nil {
			sp.Add(trace.StageQueueWait, waited)
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
			return false
		}
		s.o.probes.Inc()
		s.probesIngested.Add(1)
		s.o.hotProbes.Observe(uint64(t.Key))
		if s.wal != nil {
			var t0 time.Time
			traced := s.tracer.Enabled()
			if traced {
				t0 = time.Now()
			}
			if err := s.wal.Append(req.t); err != nil {
				// Durability degraded, availability kept: the counter
				// lets operators alert on it.
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
	return true
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
// percent of the cap) only probes already in the oldest half of the retention horizon are shed
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
	case buffered >= memCap*memSoftPct/100:
		s.setMemLevel(1, buffered)
		// MinTime (no event time yet, or an engine that tracks none) would
		// overflow the subtraction and shed every probe.
		maxTS := s.eng.MaxEventTS()
		if maxTS != watermark.MinTime && s.retention > 0 && ts <= maxTS-s.retention/2 {
			s.o.memShedProbes.Inc()
			return true
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
	s.funnel.Close()
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

// flushAck is the one-frame batch that acknowledges a flush barrier.
var flushAck = []outMsg{{m: wire.Message{Kind: wire.TagFlush}}}

// session is one client connection.
type session struct {
	s    *Server
	conn net.Conn
	// out queues at most ResultBuffer frames for the writer goroutine.
	// Joiners, the ingest loop and the reader each hand over a whole
	// batch per step; the writer drains everything queued, then flushes.
	out *queue.MPSC[outMsg]

	// nextLocal and batch are owned by the session's reader goroutine:
	// local sequences are assigned in frame-arrival order before
	// admission, so a NACKed request still consumes the sequence number
	// the client assigned it and accepted requests stay aligned. batch
	// holds the requests decoded from one socket read, reused across
	// reads.
	nextLocal uint64
	batch     []ingestReq

	// traced is the writer's scratch: the sampled results of the drain
	// being written, with when each started its encode.
	traced []tracedWrite

	// outstanding counts the session's requests registered with the
	// engine and not yet answered; flushes counts flush barriers the
	// funnel saw while some were. flushMu makes "is anything outstanding"
	// and "remember this barrier" one step, so each ack is queued exactly
	// once: by the funnel when nothing is outstanding, else by the
	// deliver that brings outstanding to zero.
	outstanding atomic.Int64
	flushMu     sync.Mutex
	flushes     int

	closeOnce sync.Once
	evicted   atomic.Bool
	done      chan struct{}
}

func newSession(s *Server, conn net.Conn) *session {
	return &session{
		s:    s,
		conn: conn,
		out:  queue.NewMPSC[outMsg](s.cfg.ResultBuffer),
		done: make(chan struct{}),
	}
}

// deliver queues one batch of results for the writer goroutine. The
// outstanding counter is decremented only after they are queued, so a
// flush ack can never overtake the final answer it covers.
func (se *session) deliver(frames []outMsg) {
	n := se.send(frames)
	for _, f := range frames[n:] {
		se.s.tracer.Abandon(f.sp)
	}
	se.answered(int64(len(frames)))
}

// send queues frames for the writer goroutine, in order, and returns how
// many it queued. A session whose buffer is full gets SlowConsumerGrace to
// make room; if it is still full after the grace the session is evicted
// and the rest dropped, so one stuck client stalls its sender for at most
// one grace period instead of wedging the engine or the funnel behind it.
func (se *session) send(frames []outMsg) int {
	n, space := se.out.Put(frames)
	if n == len(frames) {
		return n
	}
	timer := time.NewTimer(se.s.cfg.SlowConsumerGrace)
	se.s.o.countAlloc(trace.StageEmit, 1, timerAllocBytes)
	defer timer.Stop()
	for n < len(frames) {
		select {
		case <-space:
		case <-se.done:
			return n
		case <-timer.C:
			se.evictSlow()
			return n
		}
		m, more := se.out.Put(frames[n:])
		n, space = n+m, more
	}
	return n
}

// answered retires n outstanding requests after their answers were queued
// (or dropped with the session). The decrement that reaches zero queues
// the acks of every flush barrier waiting on it.
func (se *session) answered(n int64) {
	if se.outstanding.Add(-n) != 0 {
		return
	}
	se.flushMu.Lock()
	acks := 0
	if se.outstanding.Load() == 0 {
		acks, se.flushes = se.flushes, 0
	}
	se.flushMu.Unlock()
	for ; acks > 0; acks-- {
		se.send(flushAck)
	}
}

// flushBarrier handles a flush frame at the funnel. Every base this
// session sent before it has been registered by now, so the ack is due
// once nothing is outstanding: immediately, or from the deliver that
// answers the last of them.
func (se *session) flushBarrier() {
	se.flushMu.Lock()
	due := se.outstanding.Load() == 0
	if !due {
		se.flushes++
	}
	se.flushMu.Unlock()
	if due {
		se.send(flushAck)
	}
}

// evictSlow force-closes a session that stopped draining: done stops new
// work and the connection close unblocks both its reader and a writer stuck
// in a send. Two detectors share it — the deliver grace timer and the
// writer's socket write deadline — so the CAS makes each session count
// once.
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

// run services the connection until EOF or error. Each pass decodes every
// frame one socket read buffered and hands them to the funnel as one
// batch: with at least wire.MaxClientFrame bytes buffered the next frame
// is complete, so decoding stops exactly before a read that could block.
// Teardown order matters: the done channel stops new work, the writer
// drains whatever is already queued (results, flush acks, protocol errors)
// to the still-open connection, and only then does the connection close.
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
		// Standby and fenced nodes take no writes: the replicated log is
		// the only ingest path. The role is read once per batch.
		refusal, _ := se.s.replRefusal()
		for err == nil {
			if !se.decode(m, refusal) {
				se.admit()
				se.sendError("unexpected frame from client")
				return
			}
			if r.Buffered() < wire.MaxClientFrame {
				break
			}
			m, err = r.Read()
		}
		se.admit()
		if err != nil {
			return // EOF and deadline errors are normal teardown paths
		}
	}
}

// decode appends one client frame to the reader's batch and reports false
// for a frame kind clients may not send. refusal is the replication NACK
// code while this node takes no writes (0 otherwise): its probes are
// dropped, since a locally accepted probe would fork the replicated log,
// and its requests get that typed NACK, so a failover-aware client rotates
// to the next address instead of timing out.
func (se *session) decode(m wire.Message, refusal byte) bool {
	var localSeq uint64
	switch m.Kind {
	case wire.TagProbe:
		if refusal != 0 {
			se.s.o.replRefused.Inc()
			return true
		}
		se.batch = append(se.batch, ingestReq{t: m.Tuple})
		return true
	case wire.TagFlush:
		se.batch = append(se.batch, ingestReq{sess: se, flush: true})
		return true
	case wire.TagBase:
		localSeq = se.nextLocal
		se.nextLocal++
	case wire.TagBaseID:
		// The client chose the request id; the session-local counter
		// tracks past it so plain base frames interleaved on the same
		// session never collide with an explicit id.
		localSeq = m.Tuple.ID
		if localSeq >= se.nextLocal {
			se.nextLocal = localSeq + 1
		}
	default:
		return false
	}
	if refusal != 0 {
		se.s.o.replRefused.Inc()
		se.sendNack(localSeq, refusal)
		return true
	}
	req := ingestReq{t: m.Tuple, sess: se, localSeq: localSeq}
	if se.s.tracer.Sample() {
		// Tagged at admission: the span rides the request through every
		// stage from here, and enq holds the admission time until the
		// handoff closes the ingest stage.
		req.sp = trace.NewSpan(localSeq, uint64(m.Tuple.Key), int64(m.Tuple.TS))
		se.s.o.countAlloc(trace.StageIngest, 1, spanAllocBytes)
		req.enq = time.Now()
	}
	se.batch = append(se.batch, req)
	return true
}

// admit hands the reader's batch to the funnel in one step, stamped with
// one clock reading: a sampled request's ingest stage ends there and its
// queue_wait begins. The admission policy applies only to what a full
// funnel did not take (see overflow).
func (se *session) admit() {
	b := se.batch
	if len(b) == 0 {
		return
	}
	now := time.Now()
	for i := range b {
		if sp := b[i].sp; sp != nil {
			sp.Add(trace.StageIngest, now.Sub(b[i].enq))
		}
		b[i].enq = now
	}
	if n, _ := se.s.funnel.Put(b); n < len(b) {
		se.overflow(b[n:])
	}
	clear(b)
	se.batch = b[:0]
}

// overflow applies the admission policy, in order, to the requests a full
// funnel did not take. Under "block" the reader waits, which backpressures
// this client's TCP stream. Under "shed-probes" and "reject" each probe
// that does not fit is dropped and counted; under "reject" each request
// that does not fit is answered with an overload NACK so the client can
// fail fast, while under "shed-probes" requests wait (requests are the
// product, probes are the fuel). Flush barriers always wait.
func (se *session) overflow(rest []ingestReq) {
	s := se.s
	if s.admission == admitBlock {
		s.funnel.PutAll(rest, nil)
		return
	}
	for i := range rest {
		one := rest[i : i+1]
		if n, _ := s.funnel.Put(one); n == 1 {
			continue
		}
		switch req := &rest[i]; {
		case req.sess == nil:
			s.o.shedProbes.Inc()
			s.flight.Record(trace.CompAdmission, trace.EvAdmissionShed,
				uint64(s.o.shedProbes.Load()), 0)
		case s.admission == admitReject && !req.flush:
			s.o.rejected.Inc()
			s.flight.Record(trace.CompAdmission, trace.EvAdmissionReject,
				uint64(s.o.rejected.Load()), 0)
			se.sendNack(req.localSeq, wire.NackOverload)
			s.tracer.Abandon(req.sp)
		default:
			s.funnel.PutAll(one, nil)
		}
	}
}

// sendNack queues a NACK from the session's own reader goroutine; a full
// outgoing buffer backpressures the reader like any other frame.
func (se *session) sendNack(seq uint64, code byte) {
	se.out.PutAll([]outMsg{{m: wire.Message{Kind: wire.TagNack, Nack: wire.Nack{Seq: seq, Code: code}}}}, se.done)
}

// funnelNack queues a NACK from the ingest goroutine. Like a result or a
// flush ack it waits at most SlowConsumerGrace for buffer space, so a
// session that is draining never loses a NACK to a momentary burst, and
// a wedged one costs the funnel one grace period before it is evicted. A
// NACK that was not queued is counted.
func (se *session) funnelNack(seq uint64, code byte) {
	if se.send([]outMsg{{m: wire.Message{Kind: wire.TagNack, Nack: wire.Nack{Seq: seq, Code: code}}}}) == 0 {
		se.s.o.nacksDropped.Inc()
	}
}

func (se *session) sendError(msg string) {
	se.out.PutAll([]outMsg{{m: wire.Message{Kind: wire.TagError, Err: msg}}}, se.done)
}

// graceWriter arms the slow-consumer grace as the connection's write
// deadline before every socket write. The session writer's buffer turns a
// drained run into one socket write (plus one per further buffer-full), so
// the deadline is armed about once per drain rather than once per frame,
// and every write still gets the whole grace: a stalled TCP peer cannot
// hold the writer longer than that.
type graceWriter struct {
	conn  net.Conn
	grace time.Duration
}

func (g graceWriter) Write(p []byte) (int, error) {
	g.conn.SetWriteDeadline(time.Now().Add(g.grace))
	return g.conn.Write(p)
}

// writeFrame encodes one outgoing frame into the writer's buffer.
func writeFrame(w *wire.Writer, m wire.Message) error {
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

// writeTake is how many frames the session writer takes from its queue
// per lock acquisition.
const writeTake = 128

// tracedWrite is a sampled result the writer encoded, with when its
// encode started.
type tracedWrite struct {
	sp    *trace.Span
	start time.Time
}

// drain encodes every queued frame and flushes once. A sampled result's
// last two stages are stamped around it: emit (join end → this pickup)
// before its encode, tcp_write (its encode → the drain's flush) after;
// then the span is complete and retires to the /tracez ring. Spans whose
// frames did not reach the wire are abandoned. A flush ack promises every
// answer sent before it, so the sampled ones among them are flushed and
// retired before the ack is encoded: once a client holds the ack, /tracez
// holds their spans.
func (se *session) drain(w *wire.Writer, run []outMsg) error {
	var err error
	for err == nil {
		n, left, _ := se.out.Take(run)
		for i := range run[:n] {
			om := &run[i]
			if err == nil && om.m.Kind == wire.TagFlush && len(se.traced) > 0 {
				err = w.Flush()
				se.retire(err)
			}
			if err != nil {
				se.s.tracer.Abandon(om.sp)
				continue
			}
			if om.sp != nil {
				om.sp.StampWriterPickup()
				se.traced = append(se.traced, tracedWrite{om.sp, time.Now()})
			}
			err = writeFrame(w, om.m)
		}
		clear(run[:n])
		if left == 0 {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	se.retire(err)
	return err
}

// retire completes the spans of the results encoded since the last
// retire, or abandons them if the flush that carried them failed.
func (se *session) retire(err error) {
	for _, tw := range se.traced {
		if err != nil {
			se.s.tracer.Abandon(tw.sp)
			continue
		}
		tw.sp.Add(trace.StageTCPWrite, time.Since(tw.start))
		se.s.tracer.Complete(tw.sp)
	}
	clear(se.traced)
	se.traced = se.traced[:0]
}

// writeLoop drains the outgoing queue each time it is woken. A write
// error force-closes the session so its reader does not linger on a
// half-dead connection; a deadline-expired write means the peer stopped
// draining its TCP stream and counts as a slow-consumer eviction.
func (se *session) writeLoop(done chan struct{}) {
	defer close(done)
	w := wire.NewWriter(graceWriter{conn: se.conn, grace: se.s.cfg.SlowConsumerGrace})
	se.s.o.countAlloc(trace.StageTCPWrite, 1, wireWriterAllocBytes)
	run := make([]outMsg, writeTake)
	for {
		select {
		case <-se.out.Ready():
			if err := se.drain(w, run); err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					se.evictSlow()
					return
				}
				se.close()
				se.conn.Close()
				return
			}
		case <-se.done:
			// Write out anything already queued (results, flush acks,
			// protocol errors), then stop.
			se.drain(w, run)
			return
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
