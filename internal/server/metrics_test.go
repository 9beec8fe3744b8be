package server

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// metricFamilies parses Prometheus text into one line per family, in
// scrape order: "name type shape help", where shape lists the family's
// sample forms ("-" for a bare sample, "{joiner}" for a per-joiner
// label, "_sum" for a suffixed sample, and so on).
func metricFamilies(t *testing.T, body string) []string {
	t.Helper()
	var order []string
	help, typ := map[string]string{}, map[string]string{}
	shapes := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			help[name] = text
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			typ[name] = kind
			order = append(order, name)
			continue
		}
		sample, _, _ := strings.Cut(line, " ")
		series, labels, _ := strings.Cut(sample, "{")
		fam := order[len(order)-1]
		if !strings.HasPrefix(series, fam) {
			t.Fatalf("sample %q outside family %s", line, fam)
		}
		shape := strings.TrimPrefix(series, fam)
		if labels != "" {
			var keys []string
			for _, kv := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
				k, _, _ := strings.Cut(kv, "=")
				keys = append(keys, k)
			}
			shape += "{" + strings.Join(keys, ",") + "}"
		}
		if shape == "" {
			shape = "-"
		}
		if !slices.Contains(shapes[fam], shape) {
			shapes[fam] = append(shapes[fam], shape)
		}
	}
	out := make([]string, len(order))
	for i, name := range order {
		out[i] = name + " " + typ[name] + " " + strings.Join(shapes[name], ",") + " " + help[name]
	}
	return out
}

// wantMetricFamilies is every /metrics family of a plain two-joiner node,
// in scrape order. oijtop, the SLO evaluator, the scenario simulator and
// Prometheus dashboards read these names, so a change here is a change to
// their input.
var wantMetricFamilies = []string{
	"oij_build_info gauge {revision,go_version,gomaxprocs} Build identity; constant 1.",
	"oij_probes_total counter - Probe tuples ingested over the network.",
	"oij_requests_total counter - Base (feature request) tuples ingested.",
	"oij_results_total counter {joiner} Join results emitted, per joiner.",
	"oij_utilization_epochs_total counter - Closed utilization sampling epochs.",
	"oij_stage_alloc_objects_ingest_total counter - Hot-path allocations attributed to the ingest stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_ingest_total counter - Bytes allocated on the hot path in the ingest stage (slice growth exact, boxed states nominal).",
	"oij_stage_alloc_objects_queue_wait_total counter - Hot-path allocations attributed to the queue_wait stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_queue_wait_total counter - Bytes allocated on the hot path in the queue_wait stage (slice growth exact, boxed states nominal).",
	"oij_stage_alloc_objects_dispatch_total counter - Hot-path allocations attributed to the dispatch stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_dispatch_total counter - Bytes allocated on the hot path in the dispatch stage (slice growth exact, boxed states nominal).",
	"oij_stage_alloc_objects_probe_total counter - Hot-path allocations attributed to the probe stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_probe_total counter - Bytes allocated on the hot path in the probe stage (slice growth exact, boxed states nominal).",
	"oij_stage_alloc_objects_aggregate_total counter - Hot-path allocations attributed to the aggregate stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_aggregate_total counter - Bytes allocated on the hot path in the aggregate stage (slice growth exact, boxed states nominal).",
	"oij_stage_alloc_objects_emit_total counter - Hot-path allocations attributed to the emit stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_emit_total counter - Bytes allocated on the hot path in the emit stage (slice growth exact, boxed states nominal).",
	"oij_stage_alloc_objects_wal_append_total counter - Hot-path allocations attributed to the wal_append stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_wal_append_total counter - Bytes allocated on the hot path in the wal_append stage (slice growth exact, boxed states nominal).",
	"oij_stage_alloc_objects_tcp_write_total counter - Hot-path allocations attributed to the tcp_write stage (exact counts from instrumented sites).",
	"oij_stage_alloc_bytes_tcp_write_total counter - Bytes allocated on the hot path in the tcp_write stage (slice growth exact, boxed states nominal).",
	"oij_admission_shed_probes_total counter - Probe tuples dropped at admission because the ingest funnel was full.",
	"oij_admission_rejected_total counter - Requests NACKed at admission under the reject policy.",
	"oij_deadline_rejected_total counter - Requests NACKed after exceeding the per-request deadline in the funnel.",
	"oij_mem_shed_probes_total counter - Probe tuples shed by the memory watermark guard.",
	"oij_slow_sessions_evicted_total counter - Sessions evicted because their result buffer stayed full past the grace period.",
	"oij_nacks_dropped_total counter - NACK frames dropped because the session's outgoing buffer stayed full past the slow-consumer grace or the session closed.",
	"oij_joiner_utilization gauge {joiner} Per-joiner busy fraction over the last epoch (Fig. 14, live).",
	"oij_go_goroutines gauge - Live goroutine count (sampled per epoch).",
	"oij_go_heap_inuse_bytes gauge - Heap bytes occupied by live objects (sampled per epoch).",
	"oij_go_gc_goal_bytes gauge - Heap size the next GC cycle targets (sampled per epoch).",
	"oij_go_gc_pause_p99_us gauge - 99th percentile GC stop-the-world pause over the last epoch (µs).",
	"oij_uptime_seconds gauge - Seconds since the server started.",
	"oij_watermark_lag_us gauge - Max observed event time minus current watermark (event-time µs).",
	"oij_pending_requests gauge - Requests awaiting a result.",
	"oij_ingest_queue_depth gauge - Tuples buffered in the ingest funnel.",
	"oij_sessions_active gauge - Currently connected sessions.",
	"oij_buffered_probes gauge - Estimated probe tuples buffered in the engine (ingested minus evicted).",
	"oij_mem_pressure_level gauge - Memory guard rung: 0 normal, 1 shedding oldest-window probes, 2 shedding all probes.",
	"oij_transport_stall_parks_total gauge - Driver parks while waiting for joiner ring space.",
	"oij_stalled_joiners gauge - Joiners whose input ring has blocked the driver past the stall threshold.",
	"oij_wal_errors gauge - WAL append failures since startup.",
	"oij_wal_recovered_frames gauge - WAL frames replayed into the engine at recovery.",
	"oij_wal_skipped_frames gauge - Checksum-failed WAL frames skipped at recovery.",
	"oij_wal_truncated_bytes gauge - Torn or unsalvageable bytes truncated from WAL segment tails.",
	"oij_effectiveness gauge - Paper Eq. 1: in-window fraction of visited buffer entries (1 when uninstrumented).",
	"oij_unbalancedness gauge - Paper Eq. 2: dispersion of per-joiner workloads.",
	"oij_reschedules gauge - Accepted dynamic-schedule changes (Algorithm 3).",
	"oij_trace_sample_every gauge - Per-request trace sampling rate (1-in-N; 0 = disabled).",
	"oij_trace_completed_spans gauge - Sampled request spans completed since startup.",
	"oij_flight_events_total gauge - Flight-recorder events recorded since startup.",
	"oij_flight_dumps_total gauge - Flight-recorder incident dumps written since startup.",
	"oij_slo_healthy gauge - SLO verdict served on /healthz: 1 healthy, 0 unhealthy.",
	"oij_hotkey_probe_top1_share gauge - Stream share of the hottest probe key (SpaceSaving merge across joiners).",
	"oij_hotkey_probe_topk_share gauge - Stream share of the merged probe top-K residency.",
	"oij_hotkey_base_top1_share gauge - Stream share of the hottest request key.",
	"oij_hotkey_base_topk_share gauge - Stream share of the merged request top-K residency.",
	"oij_joiner_queue_depth gauge {joiner} Per-joiner input ring depth.",
	"oij_joiner_processed_total gauge {joiner} Data tuples handled per joiner (paper W_i).",
	"oij_request_latency_seconds summary {quantile},_sum,_count Request latency from arrival to result emission.",
}

// wantProfFamilies and wantReplFamilies are the families a node adds with
// the continuous profiler and with replication on; they slot into the
// plain list after the families named as their anchors.
var (
	wantProfFamilies = []string{
		"oij_prof_captures_total gauge - Profiles captured into the ring since startup.",
		"oij_prof_incident_captures_total gauge - Out-of-cycle incident captures since startup.",
		"oij_prof_errors_total gauge - Profile capture or ring write failures since startup.",
		"oij_prof_ring_entries gauge - Profiles currently retained in the on-disk ring.",
		"oij_prof_ring_bytes gauge - Bytes currently retained in the on-disk profile ring.",
	}
	wantReplRefusedFamily = "oij_repl_refused_total counter - Writes refused because this node is a replication standby or fenced."
	wantReplFamilies      = []string{
		"oij_repl_role gauge - Replication role: 1 primary, 2 standby, 3 fenced.",
		"oij_repl_epoch gauge - Fencing epoch this node last durably stamped or applied.",
		"oij_repl_log_end_slot gauge - Next WAL slot this node will assign (end of its log).",
		"oij_repl_durable_slot gauge - WAL slots known durable on this node's own disk.",
		"oij_repl_replay_offset gauge - Replication replay offset: acked slot on a primary, applied primary slot on a standby.",
		"oij_repl_lag_bytes gauge - Replication lag in bytes (un-acked log suffix on a primary, un-applied on a standby).",
		"oij_repl_lag_ms gauge - Milliseconds since the last replication liveness signal (ack on a primary, any traffic on a standby).",
		"oij_repl_standbys gauge - Standby links currently attached to this node's source.",
		"oij_repl_caught_up gauge - 1 once the standby has applied up to the primary's announced end of log.",
	}
)

// insertAfter returns list with extra spliced in after the element whose
// first field is anchor.
func insertAfter(list []string, anchor string, extra ...string) []string {
	for i, s := range list {
		if strings.HasPrefix(s, anchor+" ") {
			return slices.Insert(slices.Clone(list), i+1, extra...)
		}
	}
	panic("no anchor " + anchor)
}

// seriesOf maps family lines, in scrape order, to the timeline series the
// epoch sampler records for them, in the same order: counters as :rate,
// per-joiner gauges as :max, plain gauges by name, summaries as interval
// :p50/:p99 plus a :rate, info families not at all.
func seriesOf(families []string) []string {
	var out []string
	for _, f := range families {
		fields := strings.Fields(f)
		name, kind, shape := fields[0], fields[1], fields[2]
		switch {
		case kind == "counter":
			out = append(out, name+":rate")
		case kind == "summary":
			out = append(out, name+":p50", name+":p99", name+":rate")
		case strings.HasPrefix(shape, "{joiner}"):
			out = append(out, name+":max")
		case shape == "-":
			out = append(out, name)
		}
	}
	return out
}

func checkList(t *testing.T, what string, got, want []string) {
	t.Helper()
	if slices.Equal(got, want) {
		return
	}
	for _, g := range got {
		if !slices.Contains(want, g) {
			t.Errorf("%s has unlisted entry %q", what, g)
		}
	}
	for _, w := range want {
		if !slices.Contains(got, w) {
			t.Errorf("%s lacks entry %q", what, w)
		}
	}
	t.Errorf("%s order differs:\n%s", what, strings.Join(got, "\n"))
}

// TestMetricsFamilies pins /metrics: every family's # TYPE and # HELP
// lines and sample shape in scrape order, and the timeline series the
// epoch sampler derives from them, on a plain node and on a node with
// replication and the continuous profiler on.
func TestMetricsFamilies(t *testing.T) {
	plain := baseCfg()
	plain.AdminAddr = "127.0.0.1:0"

	full := baseCfg()
	full.AdminAddr = "127.0.0.1:0"
	full.WALPath = filepath.Join(t.TempDir(), "wal")
	full.ReplListenAddr = "127.0.0.1:0"
	full.ProfileDir = t.TempDir()
	full.ProfilePeriod = time.Hour
	fullWant := insertAfter(wantMetricFamilies, "oij_nacks_dropped_total", wantReplRefusedFamily)
	fullWant = insertAfter(fullWant, "oij_go_gc_pause_p99_us", wantProfFamilies...)
	fullWant = insertAfter(fullWant, "oij_hotkey_base_topk_share", wantReplFamilies...)

	for _, tc := range []struct {
		name string
		cfg  Config
		want []string
	}{
		{"plain", plain, wantMetricFamilies},
		{"repl+prof", full, fullWant},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, _ := startServer(t, tc.cfg)
			body := scrape(t, "http://"+srv.AdminAddr().String()+"/metrics")
			checkList(t, "/metrics", metricFamilies(t, body), tc.want)
			checkList(t, "timeline", srv.o.timeline.Names(), seriesOf(tc.want))
		})
	}
}

// promSamples parses Prometheus text into sample values keyed by series
// (name plus its label block, as rendered).
func promSamples(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// coherenceErrs checks one snapshot's invariants: requests minus the sum
// of per-joiner results is the pending count and never negative, the
// per-joiner results sum to the total, every ratio lies in [0, 1], the
// hottest key's share is at most the top-K share, and the memory guard is
// on one of its three rungs.
func coherenceErrs(requests, results, pending float64, perJoiner []float64,
	ratios map[string]float64, top1, topK [2]float64, memLevel float64) []string {
	var errs []string
	var sum float64
	for _, r := range perJoiner {
		sum += r
	}
	if requests-sum != pending || pending < 0 {
		errs = append(errs, fmt.Sprintf("requests %g - results %g != pending %g", requests, sum, pending))
	}
	if sum != results {
		errs = append(errs, fmt.Sprintf("per-joiner results sum %g != results %g", sum, results))
	}
	for name, v := range ratios {
		if v < 0 || v > 1 {
			errs = append(errs, fmt.Sprintf("%s = %g outside [0, 1]", name, v))
		}
	}
	for i := range top1 {
		if top1[i] > topK[i] {
			errs = append(errs, fmt.Sprintf("top1 share %g > topK share %g", top1[i], topK[i]))
		}
	}
	if memLevel != 0 && memLevel != 1 && memLevel != 2 {
		errs = append(errs, fmt.Sprintf("memory pressure level %g", memLevel))
	}
	return errs
}

// TestSnapshotCoherent streams seeded traffic for about two seconds while
// scraping /statusz and /metrics in a loop: every document must agree
// with itself, because each is rendered from one snapshot.
func TestSnapshotCoherent(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.UtilEpoch = 5 * time.Millisecond
	srv, addr := startServer(t, cfg)
	base := "http://" + srv.AdminAddr().String()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stop := make(chan struct{})
	streamErr := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewPCG(30, 1))
		ts := int64(1000)
		for {
			select {
			case <-stop:
				streamErr <- nil
				return
			default:
			}
			for i := 0; i < 200; i++ {
				ts += int64(rng.IntN(20))
				key := uint64(rng.IntN(16))
				if rng.IntN(4) == 0 {
					c.SendBase(key, ts, 0)
				} else {
					c.SendProbe(key, ts, 1)
				}
			}
			if err := c.Barrier(); err != nil {
				streamErr <- err
				return
			}
			if _, err := c.RecvResults(10 * time.Second); err != nil {
				streamErr <- err
				return
			}
		}
	}()

	var docs, bad int
	var firstErrs []string
	report := func(surface string, errs []string) {
		docs++
		if len(errs) > 0 {
			bad++
			if len(firstErrs) < 5 {
				firstErrs = append(firstErrs, surface+": "+strings.Join(errs, "; "))
			}
		}
	}
	for end := time.Now().Add(2 * time.Second); time.Now().Before(end); {
		var st Status
		if err := json.Unmarshal([]byte(scrape(t, base+"/statusz")), &st); err != nil {
			t.Fatal(err)
		}
		var perJoiner []float64
		ratios := map[string]float64{"effectiveness": st.Effectiveness}
		for i, js := range st.PerJoiner {
			perJoiner = append(perJoiner, float64(js.Results))
			ratios[fmt.Sprintf("utilization[%d]", i)] = js.Utilization
		}
		hk := st.HotKeys
		for name, v := range map[string]float64{"probes_top1": hk.ProbesTop1, "probes_topk": hk.ProbesTopK,
			"bases_top1": hk.BasesTop1, "bases_topk": hk.BasesTopK} {
			ratios[name] = v
		}
		report("/statusz", coherenceErrs(float64(st.Requests), float64(st.Results), float64(st.PendingRequests),
			perJoiner, ratios, [2]float64{hk.ProbesTop1, hk.BasesTop1}, [2]float64{hk.ProbesTopK, hk.BasesTopK},
			float64(st.Overload.MemPressureLevel)))

		m := promSamples(t, scrape(t, base+"/metrics"))
		perJoiner = perJoiner[:0]
		ratios = map[string]float64{"oij_effectiveness": m["oij_effectiveness"]}
		for i := 0; i < cfg.Engine.Joiners; i++ {
			perJoiner = append(perJoiner, m[fmt.Sprintf(`oij_results_total{joiner="%d"}`, i)])
			u := fmt.Sprintf(`oij_joiner_utilization{joiner="%d"}`, i)
			ratios[u] = m[u]
		}
		var sum float64
		for _, r := range perJoiner {
			sum += r
		}
		for _, s := range []string{"probe_top1", "probe_topk", "base_top1", "base_topk"} {
			name := "oij_hotkey_" + s + "_share"
			ratios[name] = m[name]
		}
		report("/metrics", coherenceErrs(m["oij_requests_total"], sum, m["oij_pending_requests"],
			perJoiner, ratios,
			[2]float64{m["oij_hotkey_probe_top1_share"], m["oij_hotkey_base_top1_share"]},
			[2]float64{m["oij_hotkey_probe_topk_share"], m["oij_hotkey_base_topk_share"]},
			m["oij_mem_pressure_level"]))
	}
	close(stop)
	if err := <-streamErr; err != nil {
		t.Fatalf("stream: %v", err)
	}
	if bad > 0 {
		t.Fatalf("%d of %d documents incoherent; first: %s", bad, docs, strings.Join(firstErrs, "\n"))
	}
	t.Logf("%d documents coherent", docs)
}
