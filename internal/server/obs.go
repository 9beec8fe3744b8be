// Live observability for the serving path: per-joiner instruments from
// package obs, the /statusz snapshot, and the epoch sampler that turns the
// paper's Fig. 14 utilization trace into a live gauge vector.
//
// Hot-path writes are shard-local atomics only (one counter add per tuple,
// one histogram bucket add per result); everything else is computed at
// scrape time from state the engine already publishes atomically.
package server

import (
	"fmt"
	"time"
	"unsafe"

	"oij/internal/control"
	"oij/internal/engine"
	"oij/internal/metrics"
	"oij/internal/obs"
	"oij/internal/obs/timeline"
	"oij/internal/prof"
	"oij/internal/repl"
	"oij/internal/trace"
	"oij/internal/tuple"
	"oij/internal/watermark"
)

// utilHistoryEpochs bounds the retained Fig. 14 trace on a long-running
// server (at the default 1s epoch: the last 10 minutes).
const utilHistoryEpochs = 600

// serverObs owns the server's registry and hot-path instruments.
type serverObs struct {
	reg     *obs.Registry
	probes  *obs.Counter      // ingested probe tuples
	bases   *obs.Counter      // ingested base (request) tuples
	results *obs.CounterVec   // emitted results, per joiner
	latency *obs.HistogramVec // request latency in ns, per joiner
	util    *obs.GaugeVec     // live utilization in [0,1], per joiner
	trace   *metrics.Utilization
	epochs  *obs.Counter // closed utilization epochs
	started time.Time

	// Overload-control transitions: every shed, reject, and eviction is
	// counted so the degradation ladder is visible on /metrics.
	shedProbes       *obs.Counter // probes dropped at admission (funnel full)
	rejected         *obs.Counter // requests NACKed at admission (policy reject)
	deadlineRejected *obs.Counter // requests NACKed past RequestDeadline
	memShedProbes    *obs.Counter // probes shed by the memory watermark guard
	slowEvicted      *obs.Counter // sessions evicted for not draining results
	nacksDropped     *obs.Counter // NACKs dropped because the session buffer was full

	// replRefused counts writes refused because this node is a standby or
	// fenced (nil — never incremented — when replication is off).
	replRefused *obs.Counter

	// Hot-key analytics: one SpaceSaving sketch per joiner per stream,
	// keys routed by the engines' own partition hash so skew is attributed
	// to the joiner that actually absorbs it. Nil when disabled.
	hotProbes *obs.HotKeys
	hotBases  *obs.HotKeys

	// Exact hot-path allocation accounting: one counter pair per pipeline
	// stage (objects, bytes), fed by the engines through the AllocRecorder
	// seam and by the serving layer's own allocation sites. This is the
	// always-on allocations-per-tuple baseline the batched hot-path work
	// optimizes against; the sampled heap profiles corroborate it.
	allocObjs  [trace.NumStages]*obs.Counter
	allocBytes [trace.NumStages]*obs.Counter

	// rt samples runtime/metrics once per epoch (goroutines, GC pause
	// p99, heap in-use, GC goal) so process health rides the same
	// timeline as join health.
	rt *runtimeSampler

	// Telemetry timeline: the collector flattens the registry into a
	// series vector once per epoch and the multi-resolution ring retains
	// it (≈5m at 1s, 1h at 10s, 24h at 1m) in fixed memory. vals is the
	// sampler-owned scratch vector.
	collector *obs.Collector
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
// counters. Nil-safe on a half-built serverObs (nothing registers before
// newServerObs returns in production; tests may call earlier).
func (o *serverObs) countAlloc(st trace.Stage, objs, bytes int64) {
	if o == nil || o.allocObjs[st] == nil {
		return
	}
	o.allocObjs[st].Add(objs)
	o.allocBytes[st].Add(bytes)
}

// CountAlloc implements engine.AllocRecorder for the engines' hot paths.
func (k serverSink) CountAlloc(st trace.Stage, objs, bytes int64) {
	k.s.o.countAlloc(st, objs, bytes)
}

// introspect returns the engine's live transport view, or nil when the
// engine predates the Introspector interface.
func (s *Server) introspect() engine.Introspector {
	in, _ := s.eng.(engine.Introspector)
	return in
}

// watermarkLag returns (maxEventTS, watermark, lag) in event-time µs,
// zeros before the first tuple.
func (s *Server) watermarkLag() (maxTS, wm, lag int64) {
	in := s.introspect()
	if in == nil {
		return 0, 0, 0
	}
	m, w := in.MaxEventTS(), in.Watermark()
	if m == watermark.MinTime {
		return 0, 0, 0
	}
	if w == watermark.MinTime {
		return int64(m), 0, 0
	}
	return int64(m), int64(w), int64(m - w)
}

// newServerObs registers every instrument against a fresh registry.
func newServerObs(s *Server, joiners int) *serverObs {
	reg := obs.NewRegistry()
	o := &serverObs{
		reg:     reg,
		probes:  reg.NewCounter("oij_probes_total", "Probe tuples ingested over the network."),
		bases:   reg.NewCounter("oij_requests_total", "Base (feature request) tuples ingested."),
		results: reg.NewCounterVec("oij_results_total", "Join results emitted, per joiner.", joiners),
		latency: reg.NewHistogramVec("oij_request_latency_seconds", "Request latency from arrival to result emission.", joiners, 1e9, nil),
		util:    reg.NewGaugeVec("oij_joiner_utilization", "Per-joiner busy fraction over the last epoch (Fig. 14, live).", joiners),
		trace:   metrics.NewUtilization(joiners, 0),
		started: time.Now(),
	}
	o.epochs = reg.NewCounter("oij_utilization_epochs_total", "Closed utilization sampling epochs.")
	o.trace.LimitHistory(utilHistoryEpochs)

	// Per-stage allocation accounting. The Prometheus encoder renders
	// vector labels only for per-joiner shards, so each stage gets its own
	// counter name rather than a label.
	for st := trace.Stage(0); st < trace.NumStages; st++ {
		name := st.String()
		o.allocObjs[st] = reg.NewCounter("oij_stage_alloc_objects_"+name+"_total",
			"Hot-path allocations attributed to the "+name+" stage (exact counts from instrumented sites).")
		o.allocBytes[st] = reg.NewCounter("oij_stage_alloc_bytes_"+name+"_total",
			"Bytes allocated on the hot path in the "+name+" stage (slice growth exact, boxed states nominal).")
	}

	// Runtime health: sampled once per epoch by the sampler loop, read
	// here at scrape/collect time.
	o.rt = newRuntimeSampler()
	reg.NewGaugeFunc("oij_go_goroutines", "Live goroutine count (sampled per epoch).", func() float64 {
		return float64(o.rt.goroutines.Load())
	})
	reg.NewGaugeFunc("oij_go_heap_inuse_bytes", "Heap bytes occupied by live objects (sampled per epoch).", func() float64 {
		return float64(o.rt.heapInUse.Load())
	})
	reg.NewGaugeFunc("oij_go_gc_goal_bytes", "Heap size the next GC cycle targets (sampled per epoch).", func() float64 {
		return float64(o.rt.gcGoal.Load())
	})
	reg.NewGaugeFunc("oij_go_gc_pause_p99_us", "99th percentile GC stop-the-world pause over the last epoch (µs).", func() float64 {
		return o.rt.pauseP99US()
	})

	if s.prof != nil {
		reg.NewGaugeFunc("oij_prof_captures_total", "Profiles captured into the ring since startup.", func() float64 {
			return float64(s.prof.Stats().Captures)
		})
		reg.NewGaugeFunc("oij_prof_incident_captures_total", "Out-of-cycle incident captures since startup.", func() float64 {
			return float64(s.prof.Stats().Incidents)
		})
		reg.NewGaugeFunc("oij_prof_errors_total", "Profile capture or ring write failures since startup.", func() float64 {
			return float64(s.prof.Stats().Errors)
		})
		reg.NewGaugeFunc("oij_prof_ring_entries", "Profiles currently retained in the on-disk ring.", func() float64 {
			return float64(s.prof.Stats().Entries)
		})
		reg.NewGaugeFunc("oij_prof_ring_bytes", "Bytes currently retained in the on-disk profile ring.", func() float64 {
			return float64(s.prof.Stats().Bytes)
		})
	}

	o.shedProbes = reg.NewCounter("oij_admission_shed_probes_total", "Probe tuples dropped at admission because the ingest funnel was full.")
	o.rejected = reg.NewCounter("oij_admission_rejected_total", "Requests NACKed at admission under the reject policy.")
	o.deadlineRejected = reg.NewCounter("oij_deadline_rejected_total", "Requests NACKed after exceeding the per-request deadline in the funnel.")
	o.memShedProbes = reg.NewCounter("oij_mem_shed_probes_total", "Probe tuples shed by the memory watermark guard.")
	o.slowEvicted = reg.NewCounter("oij_slow_sessions_evicted_total", "Sessions evicted because their result buffer stayed full past the grace period.")
	o.nacksDropped = reg.NewCounter("oij_nacks_dropped_total", "NACK frames dropped because the session's outgoing buffer was full.")

	reg.NewGaugeFunc("oij_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(o.started).Seconds()
	})
	reg.NewGaugeFunc("oij_watermark_lag_us", "Max observed event time minus current watermark (event-time µs).", func() float64 {
		_, _, lag := s.watermarkLag()
		return float64(lag)
	})
	reg.NewGaugeFunc("oij_pending_requests", "Requests awaiting a result.", func() float64 {
		s.mu.Lock()
		n := len(s.pending)
		s.mu.Unlock()
		return float64(n)
	})
	reg.NewGaugeFunc("oij_ingest_queue_depth", "Tuples buffered in the ingest funnel.", func() float64 {
		return float64(len(s.ingest))
	})
	reg.NewGaugeFunc("oij_sessions_active", "Currently connected sessions.", func() float64 {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		return float64(n)
	})
	reg.NewGaugeFunc("oij_buffered_probes", "Estimated probe tuples buffered in the engine (ingested minus evicted).", func() float64 {
		return float64(s.bufferedProbes())
	})
	reg.NewGaugeFunc("oij_mem_pressure_level", "Memory guard rung: 0 normal, 1 shedding oldest-window probes, 2 shedding all probes.", func() float64 {
		return float64(s.memLevel.Load())
	})
	reg.NewGaugeFunc("oij_transport_stall_parks_total", "Driver parks while waiting for joiner ring space.", func() float64 {
		if in := s.introspect(); in != nil {
			return float64(in.Stalls().Parks)
		}
		return 0
	})
	reg.NewGaugeFunc("oij_stalled_joiners", "Joiners whose input ring has blocked the driver past the stall threshold.", func() float64 {
		if in := s.introspect(); in != nil {
			return float64(len(in.Stalls().Wedged(s.cfg.StallThreshold)))
		}
		return 0
	})
	reg.NewGaugeFunc("oij_wal_errors", "WAL append failures since startup.", func() float64 {
		return float64(s.walErrs.Load())
	})
	reg.NewGaugeFunc("oij_wal_recovered_frames", "WAL frames replayed into the engine at recovery.", func() float64 {
		return float64(s.walRecovered.Load())
	})
	reg.NewGaugeFunc("oij_wal_skipped_frames", "Checksum-failed WAL frames skipped at recovery.", func() float64 {
		return float64(s.walSkipped.Load())
	})
	reg.NewGaugeFunc("oij_wal_truncated_bytes", "Torn or unsalvageable bytes truncated from WAL segment tails.", func() float64 {
		return float64(s.walTruncated.Load())
	})
	reg.NewGaugeFunc("oij_effectiveness", "Paper Eq. 1: in-window fraction of visited buffer entries (1 when uninstrumented).", func() float64 {
		return s.eng.Stats().MergedEffectiveness()
	})
	reg.NewGaugeFunc("oij_unbalancedness", "Paper Eq. 2: dispersion of per-joiner workloads.", func() float64 {
		return metrics.Unbalancedness(s.eng.Stats().Loads())
	})
	reg.NewGaugeVecFunc("oij_joiner_queue_depth", "Per-joiner input ring depth.", func() []float64 {
		in := s.introspect()
		if in == nil {
			return make([]float64, joiners)
		}
		depths := in.QueueDepths()
		out := make([]float64, len(depths))
		for i, d := range depths {
			out[i] = float64(d)
		}
		return out
	})
	reg.NewGaugeVecFunc("oij_joiner_processed_total", "Data tuples handled per joiner (paper W_i).", func() []float64 {
		st := s.eng.Stats()
		out := make([]float64, len(st.Processed))
		for i := range st.Processed {
			out[i] = float64(st.Processed[i].Load())
		}
		return out
	})
	if r, ok := s.eng.(interface{ Reschedules() int64 }); ok {
		reg.NewGaugeFunc("oij_reschedules", "Accepted dynamic-schedule changes (Algorithm 3).", func() float64 {
			return float64(r.Reschedules())
		})
	}
	rev, goVer, procs := obs.Build()
	reg.NewInfo("oij_build_info", "Build identity; constant 1.", [][2]string{
		{"revision", rev},
		{"go_version", goVer},
		{"gomaxprocs", fmt.Sprintf("%d", procs)},
	})
	reg.NewGaugeFunc("oij_trace_sample_every", "Per-request trace sampling rate (1-in-N; 0 = disabled).", func() float64 {
		return float64(s.tracer.SampleN())
	})
	reg.NewGaugeFunc("oij_trace_completed_spans", "Sampled request spans completed since startup.", func() float64 {
		return float64(s.tracer.Completed())
	})
	reg.NewGaugeFunc("oij_flight_events_total", "Flight-recorder events recorded since startup.", func() float64 {
		return float64(s.flight.Seq())
	})
	reg.NewGaugeFunc("oij_flight_dumps_total", "Flight-recorder incident dumps written since startup.", func() float64 {
		return float64(s.flight.Dumps())
	})
	reg.NewGaugeFunc("oij_slo_healthy", "SLO verdict served on /healthz: 1 healthy, 0 unhealthy.", func() float64 {
		if s.slo.healthy.Load() {
			return 1
		}
		return 0
	})
	if k := s.cfg.HotKeysK; k > 0 {
		hash := func(h uint64) uint64 { return engine.HashKey(tuple.Key(h)) }
		o.hotProbes = obs.NewHotKeys(joiners, k, hash)
		o.hotBases = obs.NewHotKeys(joiners, k, hash)
		reg.NewGaugeFunc("oij_hotkey_probe_top1_share", "Stream share of the hottest probe key (SpaceSaving merge across joiners).", func() float64 {
			top1, _ := o.hotProbes.TopShare(k)
			return top1
		})
		reg.NewGaugeFunc("oij_hotkey_probe_topk_share", "Stream share of the merged probe top-K residency.", func() float64 {
			_, topK := o.hotProbes.TopShare(k)
			return topK
		})
		reg.NewGaugeFunc("oij_hotkey_base_top1_share", "Stream share of the hottest request key.", func() float64 {
			top1, _ := o.hotBases.TopShare(k)
			return top1
		})
		reg.NewGaugeFunc("oij_hotkey_base_topk_share", "Stream share of the merged request top-K residency.", func() float64 {
			_, topK := o.hotBases.TopShare(k)
			return topK
		})
	}
	reg.NewGaugeFunc("oij_active_joiners", "Joiners currently routed new work (controller-resized; equals the pool when static).", func() float64 {
		return float64(s.activeJoiners())
	})
	reg.NewGaugeFunc("oij_admission_level", "Live admission ladder level: 0 block, 1 shed-probes, 2 reject.", func() float64 {
		return float64(s.admission.Load())
	})
	if r := s.repl; r != nil {
		o.replRefused = reg.NewCounter("oij_repl_refused_total", "Writes refused because this node is a replication standby or fenced.")
		reg.NewGaugeFunc("oij_repl_role", "Replication role: 1 primary, 2 standby, 3 fenced.", func() float64 {
			return float64(r.role.Load())
		})
		reg.NewGaugeFunc("oij_repl_epoch", "Fencing epoch this node last durably stamped or applied.", func() float64 {
			return float64(r.epoch.Load())
		})
		reg.NewGaugeFunc("oij_repl_log_end_slot", "Next WAL slot this node will assign (end of its log).", func() float64 {
			if s.wal == nil {
				return 0
			}
			appended, _ := s.wal.Slots()
			return float64(appended)
		})
		reg.NewGaugeFunc("oij_repl_durable_slot", "WAL slots known durable on this node's own disk.", func() float64 {
			if s.wal == nil {
				return 0
			}
			_, durable := s.wal.Slots()
			return float64(durable)
		})
		reg.NewGaugeFunc("oij_repl_replay_offset", "Replication replay offset: acked slot on a primary, applied primary slot on a standby.", func() float64 {
			switch r.roleNow() {
			case repl.RoleStandby, repl.RoleFenced:
				return float64(r.appliedSlot())
			default:
				return float64(r.acked.Load())
			}
		})
		reg.NewGaugeFunc("oij_repl_lag_bytes", "Replication lag in bytes (un-acked log suffix on a primary, un-applied on a standby).", func() float64 {
			b, _ := r.lag()
			return float64(b)
		})
		reg.NewGaugeFunc("oij_repl_lag_ms", "Milliseconds since the last replication liveness signal (ack on a primary, any traffic on a standby).", func() float64 {
			_, ms := r.lag()
			return ms
		})
		reg.NewGaugeFunc("oij_repl_standbys", "Standby links currently attached to this node's source.", func() float64 {
			return float64(r.standbys.Load())
		})
		reg.NewGaugeFunc("oij_repl_caught_up", "1 once the standby has applied up to the primary's announced end of log.", func() float64 {
			if r.caughtUp.Load() {
				return 1
			}
			return 0
		})
	}
	reg.NewGaugeFunc("oij_mem_soft_pct", "Soft memory-guard rung as a percent of MemCapProbes.", func() float64 {
		return float64(s.memSoftPct.Load())
	})
	reg.NewGaugeFunc("oij_ctl_enabled", "1 while the adaptive controller is enabled.", func() float64 {
		if s.ctl != nil {
			return 1
		}
		return 0
	})
	reg.NewGaugeFunc("oij_ctl_decisions_total", "Controller decisions applied since startup.", func() float64 {
		if s.ctl == nil {
			return 0
		}
		return float64(s.ctl.Applied())
	})
	reg.NewGaugeFunc("oij_ctl_frozen", "1 while the controller is frozen (manual overrides still apply).", func() float64 {
		if s.ctl != nil && s.ctl.Frozen() {
			return 1
		}
		return 0
	})
	// The collector snapshots the instrument set, so every gauge above —
	// including the SLO verdict and hot-key shares — becomes a timeline
	// series; instruments must not be registered after this point.
	o.collector = obs.NewCollector(reg)
	o.timeline = timeline.New(o.collector.Names(), nil)
	return o
}

// sampleUtilization closes one epoch: per-joiner busy-time deltas become
// the live gauge vector and one Fig. 14 trace row.
func (s *Server) sampleUtilization(prevBusy []int64, epoch time.Duration) {
	st := s.eng.Stats()
	for i := range st.Busy {
		cur := st.Busy[i].Load()
		s.o.trace.AddBusy(i, time.Duration(cur-prevBusy[i]))
		prevBusy[i] = cur
	}
	row := s.o.trace.SnapshotOver(epoch)
	for i, f := range row {
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
			// The same tick feeds the telemetry timeline and re-scores
			// the SLO verdict, so /timeline, /healthz, and the flight
			// recorder all advance on one clock.
			s.o.vals = s.o.collector.Collect(elapsed, s.o.vals)
			s.o.timeline.Record(now, s.o.vals)
			s.slo.evaluate(now, epoch)
			// The controller consumes the same epoch snapshot the SLO
			// verdict was scored from, so its decisions and the health
			// transitions they react to share one clock in the flight
			// recorder.
			s.controllerStep(now, epoch)
		}
	}
}

// watchStalls records stall watchdog edges to the flight recorder.
func (s *Server) watchStalls() {
	in := s.introspect()
	if in == nil {
		return
	}
	st := in.Stalls()
	wedged := st.Wedged(s.cfg.StallThreshold)
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
	MemSoftPct          int32   `json:"mem_soft_pct,omitempty"`
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

// ControlStatus is the adaptive-controller block on /statusz: live knob
// values plus the tail of the decision ring (/controlz has the full ring
// and the policy document).
type ControlStatus struct {
	Frozen        bool               `json:"frozen"`
	ActiveJoiners int                `json:"active_joiners"`
	PoolJoiners   int                `json:"pool_joiners"`
	Applied       uint64             `json:"applied_decisions"`
	Suppressed    uint64             `json:"suppressed_decisions"`
	Recent        []control.Decision `json:"recent_decisions,omitempty"`
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
	ActiveJoiners    int                `json:"active_joiners"`
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
	Control          *ControlStatus     `json:"control,omitempty"`
	Trace            TraceStatus        `json:"trace"`
	Runtime          RuntimeStatus      `json:"runtime"`
	Profiling        *prof.Stats        `json:"profiling,omitempty"`
	StageAllocs      []StageAllocStatus `json:"stage_allocs"`
	SLO              HealthStatus       `json:"slo"`
	Timeline         TimelineStatus     `json:"timeline"`
	HotKeys          *HotKeysStatus     `json:"hot_keys,omitempty"`
	Latency          LatencyStatus      `json:"latency"`
	PerJoiner        []JoinerStatus     `json:"per_joiner"`
}

// Statusz snapshots the server without stopping it: counters and gauges
// are atomics, the latency histogram merges per-joiner SWMR shards, and
// the only lock taken is the short pending-map mutex.
func (s *Server) Statusz() Status {
	st := s.eng.Stats()
	maxTS, wm, lag := s.watermarkLag()
	s.mu.Lock()
	pending := len(s.pending)
	active := len(s.sessions)
	s.mu.Unlock()

	joiners := s.cfg.Engine.Joiners
	var depths []int
	if in := s.introspect(); in != nil {
		depths = in.QueueDepths()
	} else {
		depths = make([]int, joiners)
	}
	utils := s.o.util.Values()
	resultsPer := s.o.results.Values()

	out := Status{
		Algorithm:        s.cfg.Algorithm,
		Mode:             s.cfg.Engine.Mode.String(),
		Joiners:          joiners,
		ActiveJoiners:    s.activeJoiners(),
		UptimeSeconds:    time.Since(s.o.started).Seconds(),
		Served:           s.served.Load(),
		Probes:           s.o.probes.Load(),
		Requests:         s.o.bases.Load(),
		Results:          s.o.results.Total(),
		PendingRequests:  pending,
		IngestQueueDepth: len(s.ingest),
		WALErrors:        s.walErrs.Load(),
		WALRecovered:     s.walRecovered.Load(),
		WALSkipped:       s.walSkipped.Load(),
		WALTruncated:     s.walTruncated.Load(),
		MaxEventTS:       maxTS,
		Watermark:        wm,
		WatermarkLag:     lag,
		Effectiveness:    st.MergedEffectiveness(),
		Unbalancedness:   metrics.Unbalancedness(st.Loads()),
		PerJoiner:        make([]JoinerStatus, joiners),
	}
	if s.wal != nil {
		out.WALSync = s.wal.Mode().String()
	}
	if r, ok := s.eng.(interface{ Reschedules() int64 }); ok {
		n := r.Reschedules()
		out.Reschedules = &n
	}
	out.Replication = s.replStatus()
	out.Overload = OverloadStatus{
		Admission:           control.AdmissionName(int(s.admission.Load())),
		RequestDeadlineMs:   float64(s.cfg.RequestDeadline) / float64(time.Millisecond),
		MemCapProbes:        s.cfg.MemCapProbes,
		MemSoftPct:          s.memSoftPct.Load(),
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
	}
	if in := s.introspect(); in != nil {
		stalls := in.Stalls()
		out.Overload.StallParks = stalls.Parks
		out.Overload.StalledJoiners = stalls.Wedged(s.cfg.StallThreshold)
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
	if s.ctl != nil {
		snap := s.ctl.Snapshot()
		recent := snap.Decisions
		if len(recent) > 8 {
			recent = recent[:8]
		}
		out.Control = &ControlStatus{
			Frozen:        snap.Frozen,
			ActiveJoiners: s.activeJoiners(),
			PoolJoiners:   joiners,
			Applied:       snap.Applied,
			Suppressed:    snap.Suppressed,
			Recent:        recent,
		}
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
	if s.o.hotProbes != nil {
		k := s.cfg.HotKeysK
		hk := &HotKeysStatus{K: k, PerJoinerK: k, JoinerShard: true}
		hk.Probes = s.o.hotProbes.Merged(k)
		hk.Bases = s.o.hotBases.Merged(k)
		hk.ProbesTop1, hk.ProbesTopK = s.o.hotProbes.TopShare(k)
		hk.BasesTop1, hk.BasesTopK = s.o.hotBases.TopShare(k)
		out.HotKeys = hk
	}
	h := s.o.latency.Snapshot()
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
	for i := 0; i < joiners; i++ {
		js := JoinerStatus{Processed: st.Processed[i].Load()}
		if i < len(resultsPer) {
			js.Results = resultsPer[i]
		}
		if i < len(depths) {
			js.QueueDepth = depths[i]
		}
		if i < len(utils) {
			js.Utilization = utils[i]
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

// compile-time checks: the server sink accepts latency samples and hands
// out trace spans to engines.
var (
	_ engine.LatencyRecorder = serverSink{}
	_ engine.StageRecorder   = serverSink{}
	_ engine.AllocRecorder   = serverSink{}
)
