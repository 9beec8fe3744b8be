// Live observability for the serving path: per-joiner instruments from
// package obs, the /statusz snapshot, and the epoch sampler that turns the
// paper's Fig. 14 utilization trace into a live gauge vector.
//
// Hot-path writes are shard-local atomics only (one counter add per tuple,
// one histogram bucket add per result); everything else is read once per
// scrape, into one Status snapshot, from state the engine already
// publishes atomically.
package server

import (
	"strconv"
	"time"
	"unsafe"

	"oij/internal/engine"
	"oij/internal/metrics"
	"oij/internal/obs"
	"oij/internal/obs/timeline"
	"oij/internal/prof"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/watermark"
)

// serverObs owns the server's hot-path instruments and the family table
// that renders them, with everything else the server publishes, from one
// Status snapshot.
type serverObs struct {
	probes  obs.Counter      // ingested probe tuples
	bases   obs.Counter      // ingested base (request) tuples
	results obs.CounterVec   // emitted results, per joiner
	latency obs.HistogramVec // request latency in ns, per joiner
	util    obs.GaugeVec     // live utilization in [0,1], per joiner
	epochs  obs.Counter      // closed utilization epochs
	started time.Time

	// Overload-control transitions: every shed, reject, and eviction is
	// counted so the degradation ladder is visible on /metrics.
	shedProbes       obs.Counter // probes dropped at admission (funnel full)
	rejected         obs.Counter // requests NACKed at admission (policy reject)
	deadlineRejected obs.Counter // requests NACKed past RequestDeadline
	memShedProbes    obs.Counter // probes shed by the memory watermark guard
	slowEvicted      obs.Counter // sessions evicted for not draining results
	nacksDropped     obs.Counter // NACKs dropped: session buffer full past the grace, or session closed

	// replRefused counts writes refused because this node is a standby or
	// fenced (never incremented, and not rendered, when replication is off).
	replRefused obs.Counter

	// Hot-key analytics: one SpaceSaving sketch per joiner per stream,
	// keys routed by the engines' own partition hash so skew is attributed
	// to the joiner that actually absorbs it.
	hotProbes *obs.HotKeys
	hotBases  *obs.HotKeys

	// Exact hot-path allocation accounting: one counter pair per pipeline
	// stage (objects, bytes), fed by the engines through the AllocRecorder
	// seam and by the serving layer's own allocation sites. This is the
	// always-on allocations-per-tuple baseline the batched hot-path work
	// optimizes against; the sampled heap profiles corroborate it.
	allocObjs  [trace.NumStages]obs.Counter
	allocBytes [trace.NumStages]obs.Counter

	// rt samples runtime/metrics once per epoch (goroutines, GC pause
	// p99, heap in-use, GC goal) so process health rides the same
	// timeline as join health.
	rt *runtimeSampler

	// families declares every /metrics family. A scrape renders it over
	// one fresh Status; once per epoch the collector turns the sampler's
	// snapshot into a timeline row, which the multi-resolution ring
	// retains (≈5m at 1s, 1h at 10s, 24h at 1m) in fixed memory. vals is
	// the sampler-owned scratch vector.
	families  []obs.Family[Status]
	collector *obs.Collector[Status]
	timeline  *timeline.Timeline
	vals      []float64
}

// Accounting sizes for the serving layer's own hot-path allocation sites.
// Spans and timers are exact struct sizes; the wire writer is its bufio
// buffer (the struct around it is noise by comparison).
var (
	spanAllocBytes  = int64(unsafe.Sizeof(trace.Span{}))
	timerAllocBytes = int64(unsafe.Sizeof(time.Timer{}))
)

const wireWriterAllocBytes = 4096

// countAlloc books one hot-path allocation report against a stage's
// counters. Nil-safe before newServerObs returns (engines are built, and
// may report, before the server's instruments exist).
func (o *serverObs) countAlloc(st trace.Stage, objs, bytes int64) {
	if o == nil {
		return
	}
	o.allocObjs[st].Add(objs)
	o.allocBytes[st].Add(bytes)
}

// CountAlloc implements engine.AllocRecorder for the engines' hot paths.
func (k serverSink) CountAlloc(st trace.Stage, objs, bytes int64) {
	k.s.o.countAlloc(st, objs, bytes)
}

// watermarkLag returns (maxEventTS, watermark, lag) in event-time µs,
// zeros before the first tuple.
func (s *Server) watermarkLag() (maxTS, wm, lag int64) {
	m, w := s.eng.MaxEventTS(), s.eng.Watermark()
	if m == watermark.MinTime {
		return 0, 0, 0
	}
	if w == watermark.MinTime {
		return int64(m), 0, 0
	}
	return int64(m), int64(w), int64(m - w)
}

// newServerObs builds the instruments, the family table and the timeline.
func newServerObs(s *Server, joiners int) *serverObs {
	hash := func(h uint64) uint64 { return engine.HashKey(tuple.Key(h)) }
	o := &serverObs{
		results:   obs.NewCounterVec(joiners),
		latency:   obs.NewHistogramVec(joiners),
		util:      obs.NewGaugeVec(joiners),
		started:   time.Now(),
		hotProbes: obs.NewHotKeys(joiners, hotKeysK, hash),
		hotBases:  obs.NewHotKeys(joiners, hotKeysK, hash),
		rt:        newRuntimeSampler(),
	}
	o.families = s.metricFamilies()
	o.collector = obs.NewCollector(o.families)
	o.timeline = timeline.New(o.collector.Names())
	return o
}

// Family constructors for the table below: a value read off the snapshot
// becomes a counter, a gauge, or one sample per joiner.
func counterOf(name, help string, v func(*Status) int64) obs.Family[Status] {
	return obs.Family[Status]{Name: name, Help: help, Kind: obs.KindCounter,
		Value: func(st *Status) float64 { return float64(v(st)) }}
}

func gaugeOf(name, help string, v func(*Status) float64) obs.Family[Status] {
	return obs.Family[Status]{Name: name, Help: help, Kind: obs.KindGauge, Value: v}
}

func perJoiner(kind obs.Kind, name, help string, v func(*JoinerStatus) float64) obs.Family[Status] {
	return obs.Family[Status]{Name: name, Help: help, Kind: kind,
		Shard: func(st *Status, i int) (float64, bool) {
			if i >= len(st.PerJoiner) {
				return 0, false
			}
			return v(&st.PerJoiner[i]), true
		}}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// metricFamilies declares every /metrics family once, in scrape order,
// each read from a Status. The profiling, replication and rescheduling
// families exist only on servers that have those sections.
func (s *Server) metricFamilies() []obs.Family[Status] {
	fams := []obs.Family[Status]{
		{Name: "oij_build_info", Help: "Build identity; constant 1.", Kind: obs.KindInfo,
			Labels: func(st *Status) [][2]string {
				return [][2]string{{"revision", st.Build.Revision}, {"go_version", st.Build.GoVersion},
					{"gomaxprocs", strconv.Itoa(st.Build.GOMAXPROCS)}}
			}},
		counterOf("oij_probes_total", "Probe tuples ingested over the network.", func(st *Status) int64 { return st.Probes }),
		counterOf("oij_requests_total", "Base (feature request) tuples ingested.", func(st *Status) int64 { return st.Requests }),
		perJoiner(obs.KindCounter, "oij_results_total", "Join results emitted, per joiner.", func(js *JoinerStatus) float64 { return float64(js.Results) }),
		counterOf("oij_utilization_epochs_total", "Closed utilization sampling epochs.", func(st *Status) int64 { return st.UtilizationEpochs }),
	}
	// Per-stage allocation accounting. Vector labels are only per-joiner,
	// so each stage gets its own counter name rather than a label.
	for stage := trace.Stage(0); stage < trace.NumStages; stage++ {
		name := stage.String()
		fams = append(fams,
			counterOf("oij_stage_alloc_objects_"+name+"_total",
				"Hot-path allocations attributed to the "+name+" stage (exact counts from instrumented sites).",
				func(st *Status) int64 { return st.StageAllocs[stage].Objects }),
			counterOf("oij_stage_alloc_bytes_"+name+"_total",
				"Bytes allocated on the hot path in the "+name+" stage (slice growth exact, boxed states nominal).",
				func(st *Status) int64 { return st.StageAllocs[stage].Bytes }))
	}
	fams = append(fams,
		counterOf("oij_admission_shed_probes_total", "Probe tuples dropped at admission because the ingest funnel was full.", func(st *Status) int64 { return st.Overload.ShedProbes }),
		counterOf("oij_admission_rejected_total", "Requests NACKed at admission under the reject policy.", func(st *Status) int64 { return st.Overload.Rejected }),
		counterOf("oij_deadline_rejected_total", "Requests NACKed after exceeding the per-request deadline in the funnel.", func(st *Status) int64 { return st.Overload.DeadlineRejected }),
		counterOf("oij_mem_shed_probes_total", "Probe tuples shed by the memory watermark guard.", func(st *Status) int64 { return st.Overload.MemShedProbes }),
		counterOf("oij_slow_sessions_evicted_total", "Sessions evicted because their result buffer stayed full past the grace period.", func(st *Status) int64 { return st.Overload.SlowSessionsEvicted }),
		counterOf("oij_nacks_dropped_total", "NACK frames dropped because the session's outgoing buffer stayed full past the slow-consumer grace or the session closed.", func(st *Status) int64 { return st.Overload.NacksDropped }),
	)
	if s.repl != nil {
		fams = append(fams, counterOf("oij_repl_refused_total", "Writes refused because this node is a replication standby or fenced.", func(st *Status) int64 { return st.Replication.Refused }))
	}
	fams = append(fams,
		perJoiner(obs.KindGauge, "oij_joiner_utilization", "Per-joiner busy fraction over the last epoch (Fig. 14, live).", func(js *JoinerStatus) float64 { return js.Utilization }),
		gaugeOf("oij_go_goroutines", "Live goroutine count (sampled per epoch).", func(st *Status) float64 { return float64(st.Runtime.Goroutines) }),
		gaugeOf("oij_go_heap_inuse_bytes", "Heap bytes occupied by live objects (sampled per epoch).", func(st *Status) float64 { return float64(st.Runtime.HeapInUse) }),
		gaugeOf("oij_go_gc_goal_bytes", "Heap size the next GC cycle targets (sampled per epoch).", func(st *Status) float64 { return float64(st.Runtime.GCGoalBytes) }),
		gaugeOf("oij_go_gc_pause_p99_us", "99th percentile GC stop-the-world pause over the last epoch (µs).", func(st *Status) float64 { return st.Runtime.GCPauseP99Us }),
	)
	if s.prof != nil {
		fams = append(fams,
			gaugeOf("oij_prof_captures_total", "Profiles captured into the ring since startup.", func(st *Status) float64 { return float64(st.Profiling.Captures) }),
			gaugeOf("oij_prof_incident_captures_total", "Out-of-cycle incident captures since startup.", func(st *Status) float64 { return float64(st.Profiling.Incidents) }),
			gaugeOf("oij_prof_errors_total", "Profile capture or ring write failures since startup.", func(st *Status) float64 { return float64(st.Profiling.Errors) }),
			gaugeOf("oij_prof_ring_entries", "Profiles currently retained in the on-disk ring.", func(st *Status) float64 { return float64(st.Profiling.Entries) }),
			gaugeOf("oij_prof_ring_bytes", "Bytes currently retained in the on-disk profile ring.", func(st *Status) float64 { return float64(st.Profiling.Bytes) }),
		)
	}
	fams = append(fams,
		gaugeOf("oij_uptime_seconds", "Seconds since the server started.", func(st *Status) float64 { return st.UptimeSeconds }),
		gaugeOf("oij_watermark_lag_us", "Max observed event time minus current watermark (event-time µs).", func(st *Status) float64 { return float64(st.WatermarkLag) }),
		gaugeOf("oij_pending_requests", "Requests awaiting a result.", func(st *Status) float64 { return float64(st.PendingRequests) }),
		gaugeOf("oij_ingest_queue_depth", "Tuples buffered in the ingest funnel.", func(st *Status) float64 { return float64(st.IngestQueueDepth) }),
		gaugeOf("oij_sessions_active", "Currently connected sessions.", func(st *Status) float64 { return float64(st.Overload.SessionsActive) }),
		gaugeOf("oij_buffered_probes", "Estimated probe tuples buffered in the engine (ingested minus evicted).", func(st *Status) float64 { return float64(st.Overload.BufferedProbes) }),
		gaugeOf("oij_mem_pressure_level", "Memory guard rung: 0 normal, 1 shedding oldest-window probes, 2 shedding all probes.", func(st *Status) float64 { return float64(st.Overload.MemPressureLevel) }),
		gaugeOf("oij_transport_stall_parks_total", "Driver parks while waiting for joiner ring space.", func(st *Status) float64 { return float64(st.Overload.StallParks) }),
		gaugeOf("oij_stalled_joiners", "Joiners whose input ring has blocked the driver past the stall threshold.", func(st *Status) float64 { return float64(len(st.Overload.StalledJoiners)) }),
		gaugeOf("oij_wal_errors", "WAL append failures since startup.", func(st *Status) float64 { return float64(st.WALErrors) }),
		gaugeOf("oij_wal_recovered_frames", "WAL frames replayed into the engine at recovery.", func(st *Status) float64 { return float64(st.WALRecovered) }),
		gaugeOf("oij_wal_skipped_frames", "Checksum-failed WAL frames skipped at recovery.", func(st *Status) float64 { return float64(st.WALSkipped) }),
		gaugeOf("oij_wal_truncated_bytes", "Torn or unsalvageable bytes truncated from WAL segment tails.", func(st *Status) float64 { return float64(st.WALTruncated) }),
		gaugeOf("oij_effectiveness", "Paper Eq. 1: in-window fraction of visited buffer entries (1 when uninstrumented).", func(st *Status) float64 { return st.Effectiveness }),
		gaugeOf("oij_unbalancedness", "Paper Eq. 2: dispersion of per-joiner workloads.", func(st *Status) float64 { return st.Unbalancedness }),
	)
	if _, ok := s.eng.(rescheduler); ok {
		fams = append(fams, gaugeOf("oij_reschedules", "Accepted dynamic-schedule changes (Algorithm 3).", func(st *Status) float64 { return float64(*st.Reschedules) }))
	}
	fams = append(fams,
		gaugeOf("oij_trace_sample_every", "Per-request trace sampling rate (1-in-N; 0 = disabled).", func(st *Status) float64 { return float64(st.Trace.SampleEvery) }),
		gaugeOf("oij_trace_completed_spans", "Sampled request spans completed since startup.", func(st *Status) float64 { return float64(st.Trace.CompletedSpans) }),
		gaugeOf("oij_flight_events_total", "Flight-recorder events recorded since startup.", func(st *Status) float64 { return float64(st.Trace.FlightEvents) }),
		gaugeOf("oij_flight_dumps_total", "Flight-recorder incident dumps written since startup.", func(st *Status) float64 { return float64(st.Trace.FlightDumps) }),
		gaugeOf("oij_slo_healthy", "SLO verdict served on /healthz: 1 healthy, 0 unhealthy.", func(st *Status) float64 { return boolGauge(st.SLO.Healthy) }),
		gaugeOf("oij_hotkey_probe_top1_share", "Stream share of the hottest probe key (SpaceSaving merge across joiners).", func(st *Status) float64 { return st.HotKeys.ProbesTop1 }),
		gaugeOf("oij_hotkey_probe_topk_share", "Stream share of the merged probe top-K residency.", func(st *Status) float64 { return st.HotKeys.ProbesTopK }),
		gaugeOf("oij_hotkey_base_top1_share", "Stream share of the hottest request key.", func(st *Status) float64 { return st.HotKeys.BasesTop1 }),
		gaugeOf("oij_hotkey_base_topk_share", "Stream share of the merged request top-K residency.", func(st *Status) float64 { return st.HotKeys.BasesTopK }),
	)
	if s.repl != nil {
		fams = append(fams,
			gaugeOf("oij_repl_role", "Replication role: 1 primary, 2 standby, 3 fenced.", func(st *Status) float64 { return float64(st.Replication.RoleCode) }),
			gaugeOf("oij_repl_epoch", "Fencing epoch this node last durably stamped or applied.", func(st *Status) float64 { return float64(st.Replication.Epoch) }),
			gaugeOf("oij_repl_log_end_slot", "Next WAL slot this node will assign (end of its log).", func(st *Status) float64 { return float64(st.Replication.LogEndSlot) }),
			gaugeOf("oij_repl_durable_slot", "WAL slots known durable on this node's own disk.", func(st *Status) float64 { return float64(st.Replication.DurableSlot) }),
			gaugeOf("oij_repl_replay_offset", "Replication replay offset: acked slot on a primary, applied primary slot on a standby.", func(st *Status) float64 { return float64(st.Replication.ReplayOffset) }),
			gaugeOf("oij_repl_lag_bytes", "Replication lag in bytes (un-acked log suffix on a primary, un-applied on a standby).", func(st *Status) float64 { return float64(st.Replication.LagBytes) }),
			gaugeOf("oij_repl_lag_ms", "Milliseconds since the last replication liveness signal (ack on a primary, any traffic on a standby).", func(st *Status) float64 { return st.Replication.LagMs }),
			gaugeOf("oij_repl_standbys", "Standby links currently attached to this node's source.", func(st *Status) float64 { return float64(st.Replication.Standbys) }),
			gaugeOf("oij_repl_caught_up", "1 once the standby has applied up to the primary's announced end of log.", func(st *Status) float64 { return boolGauge(st.Replication.CaughtUp) }),
		)
	}
	return append(fams,
		perJoiner(obs.KindGauge, "oij_joiner_queue_depth", "Per-joiner input ring depth.", func(js *JoinerStatus) float64 { return float64(js.QueueDepth) }),
		perJoiner(obs.KindGauge, "oij_joiner_processed_total", "Data tuples handled per joiner (paper W_i).", func(js *JoinerStatus) float64 { return float64(js.Processed) }),
		obs.Family[Status]{Name: "oij_request_latency_seconds", Help: "Request latency from arrival to result emission.", Kind: obs.KindSummary,
			Hist: func(st *Status) *obs.HistSnapshot { return st.LatencyHist }},
	)
}

// sampleUtilization closes one epoch: each joiner's busy-time delta over
// the measured epoch (the wall-clock tick jitters, so the denominator is
// the elapsed time, not the nominal period), capped at 1, becomes its
// live gauge — the Fig. 14 trace read one epoch at a time.
func (s *Server) sampleUtilization(prevBusy []int64, epoch time.Duration) {
	st := s.eng.Stats()
	for i := range st.Busy {
		cur := st.Busy[i].Load()
		var f float64
		if epoch > 0 {
			f = min(float64(cur-prevBusy[i])/float64(epoch), 1)
		}
		prevBusy[i] = cur
		s.o.util.Shard(i).Set(f)
	}
	s.o.epochs.Inc()
}

// samplerLoop runs until Shutdown, closing a utilization epoch per tick.
// Each epoch also lands in the flight recorder, and the tick doubles as
// the stall watchdog's edge detector: the first epoch that sees wedged
// joiners records stall-detected (and triggers an incident dump), the
// first clean one after it records stall-cleared.
func (s *Server) samplerLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.UtilEpoch)
	defer tick.Stop()
	prev := make([]int64, s.cfg.Engine.Joiners)
	last := time.Now()
	var epoch uint64
	for {
		select {
		case <-s.stopSampler:
			return
		case now := <-tick.C:
			elapsed := now.Sub(last)
			s.sampleUtilization(prev, elapsed)
			last = now
			epoch++
			_, _, lag := s.watermarkLag()
			s.flight.Record(trace.CompEpoch, trace.EvEpoch, epoch, uint64(lag))
			s.watchStalls()
			// Runtime health is sampled on the same clock so the GC and
			// goroutine series line up with join-side series point for
			// point on /timeline.
			s.o.rt.sample()
			// The same tick takes one snapshot for the telemetry
			// timeline and re-scores the SLO verdict, so /timeline,
			// /healthz, and the flight recorder all advance on one
			// clock.
			st := s.Statusz()
			s.o.vals = s.o.collector.Collect(&st, elapsed, s.o.vals)
			s.o.timeline.Record(now, s.o.vals)
			s.slo.evaluate(now, epoch)
		}
	}
}

// watchStalls records stall watchdog edges to the flight recorder.
func (s *Server) watchStalls() {
	st := s.eng.Stalls()
	wedged := st.Wedged(stallThreshold)
	if len(wedged) > 0 {
		var maxBlock time.Duration
		for _, d := range st.BlockedFor {
			if d > maxBlock {
				maxBlock = d
			}
		}
		if !s.stallActive.Swap(true) {
			s.flight.Record(trace.CompStall, trace.EvStallDetected,
				uint64(len(wedged)), uint64(maxBlock))
			s.incident("stall-watchdog")
		}
	} else if s.stallActive.Swap(false) {
		s.flight.Record(trace.CompStall, trace.EvStallCleared, 0, 0)
	}
}

// JoinerStatus is one joiner's row in the /statusz document.
type JoinerStatus struct {
	Processed   int64   `json:"processed"`
	Results     int64   `json:"results"`
	QueueDepth  int     `json:"queue_depth"`
	Utilization float64 `json:"utilization"`
}

// LatencyStatus summarises the live request-latency distribution.
type LatencyStatus struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// OverloadStatus is the degradation ladder's live state on /statusz: the
// configured policy and knobs plus every shed/reject/evict transition
// counter and the stall watchdog's view of the joiners.
type OverloadStatus struct {
	Admission           string  `json:"admission"`
	RequestDeadlineMs   float64 `json:"request_deadline_ms,omitempty"`
	MemCapProbes        int64   `json:"mem_cap_probes,omitempty"`
	SlowGraceMs         float64 `json:"slow_consumer_grace_ms"`
	ShedProbes          int64   `json:"admission_shed_probes"`
	Rejected            int64   `json:"admission_rejected"`
	DeadlineRejected    int64   `json:"deadline_rejected"`
	MemShedProbes       int64   `json:"mem_shed_probes"`
	SlowSessionsEvicted int64   `json:"slow_sessions_evicted"`
	NacksDropped        int64   `json:"nacks_dropped"`
	BufferedProbes      int64   `json:"buffered_probes"`
	MemPressureLevel    int32   `json:"mem_pressure_level"`
	SessionsActive      int     `json:"sessions_active"`
	StallParks          int64   `json:"stall_parks"`
	StalledJoiners      []int   `json:"stalled_joiners,omitempty"`
}

// BuildStatus identifies the running build on /statusz (mirrors the
// oij_build_info labels on /metrics).
type BuildStatus struct {
	Revision   string `json:"revision"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// TraceStatus is the tracing subsystem's live state on /statusz.
type TraceStatus struct {
	SampleEvery    int    `json:"sample_every"`
	ActiveSpans    int64  `json:"active_spans"`
	CompletedSpans uint64 `json:"completed_spans"`
	DroppedSpans   uint64 `json:"dropped_spans"`
	FlightEvents   uint64 `json:"flight_events"`
	FlightDumps    uint64 `json:"flight_dumps"`
}

// HotKeysStatus is the hot-key analytics block on /statusz: the merged
// cross-joiner top-K of each stream, plus the concentration shares. Every
// Count overestimates the true frequency by at most its Err.
type HotKeysStatus struct {
	K           int              `json:"k"`
	Probes      obs.TopKSnapshot `json:"probes"`
	Bases       obs.TopKSnapshot `json:"bases"`
	ProbesTop1  float64          `json:"probes_top1_share"`
	ProbesTopK  float64          `json:"probes_topk_share"`
	BasesTop1   float64          `json:"bases_top1_share"`
	BasesTopK   float64          `json:"bases_topk_share"`
	PerJoinerK  int              `json:"per_joiner_k"`
	JoinerShard bool             `json:"joiner_sharded"`
}

// RuntimeStatus is the per-epoch runtime/metrics sample on /statusz.
type RuntimeStatus struct {
	Goroutines   int64   `json:"goroutines"`
	HeapInUse    int64   `json:"heap_inuse_bytes"`
	GCGoalBytes  int64   `json:"gc_goal_bytes"`
	GCPauseP99Us float64 `json:"gc_pause_p99_us"`
}

// StageAllocStatus is one pipeline stage's exact hot-path allocation
// account (objects and bytes since startup).
type StageAllocStatus struct {
	Stage   string `json:"stage"`
	Objects int64  `json:"objects"`
	Bytes   int64  `json:"bytes"`
}

// TimelineStatus summarises the telemetry timeline on /statusz.
type TimelineStatus struct {
	Series      int      `json:"series"`
	Resolutions []string `json:"resolutions"`
	Ticks       uint64   `json:"ticks"`
	MemoryBytes int64    `json:"memory_bytes"`
}

// Status is the /statusz document: the paper's post-run metrics (§III-B,
// Eq. 1, Eq. 2, Fig. 14) read live off a serving daemon.
type Status struct {
	Build            BuildStatus        `json:"build"`
	Algorithm        string             `json:"algorithm"`
	Mode             string             `json:"mode"`
	Joiners          int                `json:"joiners"`
	UptimeSeconds    float64            `json:"uptime_seconds"`
	Served           int64              `json:"served"`
	Probes           int64              `json:"probes"`
	Requests         int64              `json:"requests"`
	Results          int64              `json:"results"`
	PendingRequests  int                `json:"pending_requests"`
	IngestQueueDepth int                `json:"ingest_queue_depth"`
	WALErrors        int64              `json:"wal_errors"`
	WALSync          string             `json:"wal_sync,omitempty"`
	WALRecovered     int64              `json:"wal_recovered_frames"`
	WALSkipped       int64              `json:"wal_skipped_frames"`
	WALTruncated     int64              `json:"wal_truncated_bytes"`
	MaxEventTS       int64              `json:"max_event_ts_us"`
	Watermark        int64              `json:"watermark_us"`
	WatermarkLag     int64              `json:"watermark_lag_us"`
	Effectiveness    float64            `json:"effectiveness"`
	Unbalancedness   float64            `json:"unbalancedness"`
	Reschedules      *int64             `json:"reschedules,omitempty"`
	Replication      *ReplStatus        `json:"replication,omitempty"`
	Overload         OverloadStatus     `json:"overload"`
	Trace            TraceStatus        `json:"trace"`
	Runtime          RuntimeStatus      `json:"runtime"`
	Profiling        *prof.Stats        `json:"profiling,omitempty"`
	StageAllocs      []StageAllocStatus `json:"stage_allocs"`
	SLO              HealthStatus       `json:"slo"`
	Timeline         TimelineStatus     `json:"timeline"`
	HotKeys          *HotKeysStatus     `json:"hot_keys,omitempty"`
	Latency          LatencyStatus      `json:"latency"`
	PerJoiner        []JoinerStatus     `json:"per_joiner"`

	// Read by /metrics and the timeline only.
	LatencyHist       *obs.HistSnapshot `json:"-"`
	UtilizationEpochs int64             `json:"-"`
}

// rescheduler is an engine that counts Algorithm 3's schedule changes.
type rescheduler interface{ Reschedules() int64 }

// Statusz snapshots the server without stopping it, reading each source
// once; /statusz, /metrics and the timeline all render this one value.
// Counters and gauges are atomics and the latency histogram merges
// per-joiner SWMR shards. Some sources take a brief lock: the session
// set, each hot-key sketch, the SLO verdict, the profiler's stats and the
// replication listener.
func (s *Server) Statusz() Status {
	// Each base produces exactly one result, closed sessions' included, so
	// pending is bases minus results. Results are read first, so a base
	// answered between the two reads cannot make it negative.
	resultsPer := s.o.results.Values()
	var results int64
	for _, r := range resultsPer {
		results += r
	}
	requests := s.o.bases.Load()
	st := s.eng.Stats()
	maxTS, wm, lag := s.watermarkLag()
	s.mu.Lock()
	active := len(s.sessions)
	s.mu.Unlock()

	joiners := s.cfg.Engine.Joiners
	depths := s.eng.QueueDepths()
	utils := s.o.util.Values()

	out := Status{
		Algorithm:         s.cfg.Algorithm,
		Mode:              s.cfg.Engine.Mode.String(),
		Joiners:           joiners,
		UptimeSeconds:     time.Since(s.o.started).Seconds(),
		Served:            s.served.Load(),
		Probes:            s.o.probes.Load(),
		Requests:          requests,
		Results:           results,
		PendingRequests:   int(requests - results),
		IngestQueueDepth:  s.funnel.Len(),
		WALErrors:         s.walErrs.Load(),
		WALRecovered:      s.walRecovered.Load(),
		WALSkipped:        s.walSkipped.Load(),
		WALTruncated:      s.walTruncated.Load(),
		MaxEventTS:        maxTS,
		Watermark:         wm,
		WatermarkLag:      lag,
		Effectiveness:     st.MergedEffectiveness(),
		Unbalancedness:    metrics.Unbalancedness(st.Loads()),
		PerJoiner:         make([]JoinerStatus, joiners),
		UtilizationEpochs: s.o.epochs.Load(),
	}
	if s.wal != nil {
		out.WALSync = s.wal.Mode().String()
	}
	if r, ok := s.eng.(rescheduler); ok {
		n := r.Reschedules()
		out.Reschedules = &n
	}
	out.Replication = s.replStatus()
	stalls := s.eng.Stalls()
	out.Overload = OverloadStatus{
		Admission:           s.cfg.Admission,
		RequestDeadlineMs:   float64(s.cfg.RequestDeadline) / float64(time.Millisecond),
		MemCapProbes:        s.cfg.MemCapProbes,
		SlowGraceMs:         float64(s.cfg.SlowConsumerGrace) / float64(time.Millisecond),
		ShedProbes:          s.o.shedProbes.Load(),
		Rejected:            s.o.rejected.Load(),
		DeadlineRejected:    s.o.deadlineRejected.Load(),
		MemShedProbes:       s.o.memShedProbes.Load(),
		SlowSessionsEvicted: s.o.slowEvicted.Load(),
		NacksDropped:        s.o.nacksDropped.Load(),
		BufferedProbes:      s.bufferedProbes(),
		MemPressureLevel:    s.memLevel.Load(),
		SessionsActive:      active,
		StallParks:          stalls.Parks,
		StalledJoiners:      stalls.Wedged(stallThreshold),
	}
	rev, goVer, procs := obs.Build()
	out.Build = BuildStatus{Revision: rev, GoVersion: goVer, GOMAXPROCS: procs}
	out.Trace = TraceStatus{
		SampleEvery:    s.tracer.SampleN(),
		ActiveSpans:    s.tracer.Active(),
		CompletedSpans: s.tracer.Completed(),
		DroppedSpans:   s.tracer.Dropped(),
		FlightEvents:   s.flight.Seq(),
		FlightDumps:    s.flight.Dumps(),
	}
	out.Runtime = RuntimeStatus{
		Goroutines:   s.o.rt.goroutines.Load(),
		HeapInUse:    s.o.rt.heapInUse.Load(),
		GCGoalBytes:  s.o.rt.gcGoal.Load(),
		GCPauseP99Us: s.o.rt.pauseP99US(),
	}
	if s.prof != nil {
		ps := s.prof.Stats()
		out.Profiling = &ps
	}
	out.StageAllocs = make([]StageAllocStatus, trace.NumStages)
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		out.StageAllocs[st] = StageAllocStatus{
			Stage:   st.String(),
			Objects: s.o.allocObjs[st].Load(),
			Bytes:   s.o.allocBytes[st].Load(),
		}
	}
	out.SLO = s.slo.Status()
	out.Timeline = TimelineStatus{
		Series:      len(s.o.timeline.Names()),
		Resolutions: s.o.timeline.Resolutions(),
		Ticks:       s.o.timeline.Ticks(),
		MemoryBytes: s.o.timeline.MemoryBytes(),
	}
	hk := &HotKeysStatus{K: hotKeysK, PerJoinerK: hotKeysK, JoinerShard: true}
	hk.Probes = s.o.hotProbes.Merged(hotKeysK)
	hk.Bases = s.o.hotBases.Merged(hotKeysK)
	hk.ProbesTop1, hk.ProbesTopK = hk.Probes.Shares()
	hk.BasesTop1, hk.BasesTopK = hk.Bases.Shares()
	out.HotKeys = hk
	h := s.o.latency.Snapshot()
	out.LatencyHist = h
	msOf := func(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }
	out.Latency = LatencyStatus{
		Count:  h.N,
		MeanMs: h.Mean() / float64(time.Millisecond),
		P50Ms:  msOf(h.Quantile(0.5)),
		P90Ms:  msOf(h.Quantile(0.9)),
		P99Ms:  msOf(h.Quantile(0.99)),
		P999Ms: msOf(h.Quantile(0.999)),
		MaxMs:  msOf(h.Max),
	}
	for i := range out.PerJoiner {
		js := JoinerStatus{Processed: st.Processed[i].Load(), Results: resultsPer[i], Utilization: utils[i]}
		if i < len(depths) {
			js.QueueDepth = depths[i]
		}
		out.PerJoiner[i] = js
	}
	return out
}

// Record implements engine.LatencyRecorder: engines call it once per
// result whose base tuple carries an arrival stamp. The write is one
// atomic bucket add in the joiner's own histogram shard.
func (k serverSink) Record(joiner int, d time.Duration) {
	k.s.o.latency.Shard(joiner).Observe(int64(d))
}

// compile-time checks: the server sink coalesces results per joiner batch,
// accepts latency samples and hands out trace spans to engines.
var (
	_ engine.BatchSink       = serverSink{}
	_ engine.LatencyRecorder = serverSink{}
	_ engine.StageRecorder   = serverSink{}
	_ engine.AllocRecorder   = serverSink{}
)
