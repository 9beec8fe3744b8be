package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"oij/internal/obs"
	"oij/internal/repl"
)

// snap takes one snapshot, addressable for the family readers.
func snap(s *Server) *Status {
	st := s.Statusz()
	return &st
}

// writeMetrics renders one /metrics document without the admin listener.
func writeMetrics(w io.Writer, s *Server) error {
	return obs.WritePrometheus(w, s.o.families, snap(s))
}

// statuszField resolves a key path such as "per_joiner[1].results" in a
// decoded /statusz document; ok is false when a key is absent.
func statuszField(doc map[string]any, path string) (any, bool) {
	var cur any = doc
	for _, seg := range strings.Split(path, ".") {
		key, idx, indexed := strings.Cut(strings.TrimSuffix(seg, "]"), "[")
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		if cur, ok = m[key]; !ok {
			return nil, false
		}
		if indexed {
			i, _ := strconv.Atoi(idx)
			arr, ok := cur.([]any)
			if !ok || i >= len(arr) {
				return nil, false
			}
			cur = arr[i]
		}
	}
	return cur, true
}

// statuszCounterparts maps each /metrics series (per-joiner ones with
// "{joiner}" standing for the label) to the /statusz key path holding the
// same quantity and the factor from the JSON unit to the metric's.
var statuszCounterparts = map[string]struct {
	path  string
	scale float64
}{
	"oij_probes_total":                              {"probes", 1},
	"oij_requests_total":                            {"requests", 1},
	"oij_results_total{joiner}":                     {"per_joiner[].results", 1},
	"oij_admission_shed_probes_total":               {"overload.admission_shed_probes", 1},
	"oij_admission_rejected_total":                  {"overload.admission_rejected", 1},
	"oij_deadline_rejected_total":                   {"overload.deadline_rejected", 1},
	"oij_mem_shed_probes_total":                     {"overload.mem_shed_probes", 1},
	"oij_slow_sessions_evicted_total":               {"overload.slow_sessions_evicted", 1},
	"oij_nacks_dropped_total":                       {"overload.nacks_dropped", 1},
	"oij_repl_refused_total":                        {"replication.refused", 1},
	"oij_joiner_utilization{joiner}":                {"per_joiner[].utilization", 1},
	"oij_go_goroutines":                             {"runtime.goroutines", 1},
	"oij_go_heap_inuse_bytes":                       {"runtime.heap_inuse_bytes", 1},
	"oij_go_gc_goal_bytes":                          {"runtime.gc_goal_bytes", 1},
	"oij_go_gc_pause_p99_us":                        {"runtime.gc_pause_p99_us", 1},
	"oij_prof_captures_total":                       {"profiling.captures", 1},
	"oij_prof_incident_captures_total":              {"profiling.incident_captures", 1},
	"oij_prof_errors_total":                         {"profiling.errors", 1},
	"oij_prof_ring_entries":                         {"profiling.entries", 1},
	"oij_prof_ring_bytes":                           {"profiling.bytes", 1},
	"oij_uptime_seconds":                            {"uptime_seconds", 1},
	"oij_watermark_lag_us":                          {"watermark_lag_us", 1},
	"oij_pending_requests":                          {"pending_requests", 1},
	"oij_ingest_queue_depth":                        {"ingest_queue_depth", 1},
	"oij_sessions_active":                           {"overload.sessions_active", 1},
	"oij_buffered_probes":                           {"overload.buffered_probes", 1},
	"oij_mem_pressure_level":                        {"overload.mem_pressure_level", 1},
	"oij_transport_stall_parks_total":               {"overload.stall_parks", 1},
	"oij_wal_errors":                                {"wal_errors", 1},
	"oij_wal_recovered_frames":                      {"wal_recovered_frames", 1},
	"oij_wal_skipped_frames":                        {"wal_skipped_frames", 1},
	"oij_wal_truncated_bytes":                       {"wal_truncated_bytes", 1},
	"oij_effectiveness":                             {"effectiveness", 1},
	"oij_unbalancedness":                            {"unbalancedness", 1},
	"oij_reschedules":                               {"reschedules", 1},
	"oij_trace_sample_every":                        {"trace.sample_every", 1},
	"oij_trace_completed_spans":                     {"trace.completed_spans", 1},
	"oij_flight_events_total":                       {"trace.flight_events", 1},
	"oij_flight_dumps_total":                        {"trace.flight_dumps", 1},
	"oij_hotkey_probe_top1_share":                   {"hot_keys.probes_top1_share", 1},
	"oij_hotkey_probe_topk_share":                   {"hot_keys.probes_topk_share", 1},
	"oij_hotkey_base_top1_share":                    {"hot_keys.bases_top1_share", 1},
	"oij_hotkey_base_topk_share":                    {"hot_keys.bases_topk_share", 1},
	"oij_repl_epoch":                                {"replication.epoch", 1},
	"oij_repl_log_end_slot":                         {"replication.log_end_slot", 1},
	"oij_repl_durable_slot":                         {"replication.durable_slot", 1},
	"oij_repl_replay_offset":                        {"replication.replay_offset", 1},
	"oij_repl_lag_bytes":                            {"replication.lag_bytes", 1},
	"oij_repl_lag_ms":                               {"replication.lag_ms", 1},
	"oij_repl_standbys":                             {"replication.standbys", 1},
	"oij_joiner_queue_depth{joiner}":                {"per_joiner[].queue_depth", 1},
	"oij_joiner_processed_total{joiner}":            {"per_joiner[].processed", 1},
	`oij_request_latency_seconds{quantile="0.5"}`:   {"latency.p50_ms", 1e-3},
	`oij_request_latency_seconds{quantile="0.9"}`:   {"latency.p90_ms", 1e-3},
	`oij_request_latency_seconds{quantile="0.99"}`:  {"latency.p99_ms", 1e-3},
	`oij_request_latency_seconds{quantile="0.999"}`: {"latency.p999_ms", 1e-3},
	"oij_request_latency_seconds_count":             {"latency.count", 1},
}

// TestOneSnapshotBothWays renders a single Status to Prometheus text and
// to JSON: every /metrics series with a /statusz counterpart carries the
// same value in both, on a node with every optional section on.
func TestOneSnapshotBothWays(t *testing.T) {
	cfg := baseCfg()
	cfg.TraceSampleN = 1
	cfg.WALPath = filepath.Join(t.TempDir(), "wal")
	cfg.ReplListenAddr = "127.0.0.1:0"
	cfg.ProfileDir = t.TempDir()
	cfg.ProfilePeriod = time.Hour
	srv, addr := startServer(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ {
		c.SendProbe(uint64(i%7), int64(1000+i*10), 1)
		if i%3 == 0 {
			c.SendBase(uint64(i%5), int64(1000+i*10), 0)
		}
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvResults(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	st := srv.Statusz()
	var text strings.Builder
	if err := obs.WritePrometheus(&text, srv.o.families, &st); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	asFloat := func(v any) float64 {
		switch v := v.(type) {
		case float64:
			return v
		case bool:
			return boolGauge(v)
		case []any:
			return float64(len(v))
		}
		t.Fatalf("unexpected JSON value %v", v)
		return 0
	}
	samples := promSamples(t, text.String())
	stageOf := map[string]int{}
	for i, sa := range doc["stage_allocs"].([]any) {
		stageOf[sa.(map[string]any)["stage"].(string)] = i
	}
	var compared int
	for series, got := range samples {
		key, path := series, ""
		name, label, _ := strings.Cut(series, `{joiner="`)
		if label != "" {
			key = name + "{joiner}"
		}
		switch cp, ok := statuszCounterparts[key]; {
		case ok:
			path = strings.Replace(cp.path, "[]", "["+strings.TrimSuffix(label, `"}`)+"]", 1)
			v, present := statuszField(doc, path)
			if !present {
				t.Errorf("%s: /statusz lacks %s", series, path)
				continue
			}
			if want := asFloat(v) * cp.scale; math.Abs(got-want) > 1e-12*math.Max(math.Abs(got), math.Abs(want)) {
				t.Errorf("%s = %v, /statusz %s gives %v", series, got, path, want)
			}
		case strings.HasPrefix(series, "oij_stage_alloc_"):
			kind, rest, _ := strings.Cut(strings.TrimPrefix(series, "oij_stage_alloc_"), "_")
			i, found := stageOf[strings.TrimSuffix(rest, "_total")]
			if !found {
				t.Errorf("%s: no /statusz stage", series)
				continue
			}
			v, _ := statuszField(doc, fmt.Sprintf("stage_allocs[%d].%s", i, kind))
			if want := asFloat(v); got != want {
				t.Errorf("%s = %v, /statusz gives %v", series, got, want)
			}
		case series == "oij_slo_healthy":
			if want := boolGauge(st.SLO.Healthy); got != want || doc["slo"].(map[string]any)["healthy"] != st.SLO.Healthy {
				t.Errorf("%s = %v, /statusz healthy %v", series, got, doc["slo"])
			}
		case series == "oij_repl_caught_up":
			v, _ := statuszField(doc, "replication.caught_up")
			if got != asFloat(v) {
				t.Errorf("%s = %v, /statusz caught_up %v", series, got, v)
			}
		case series == "oij_repl_role":
			v, _ := statuszField(doc, "replication.role")
			if want := repl.Role(got).String(); v != want {
				t.Errorf("%s = %v (%s), /statusz role %v", series, got, want, v)
			}
		case series == "oij_stalled_joiners":
			// omitempty: an absent list means no stalled joiners.
			want := 0.0
			if v, present := statuszField(doc, "overload.stalled_joiners"); present {
				want = asFloat(v)
			}
			if got != want {
				t.Errorf("%s = %v, /statusz lists %v stalled joiners", series, got, want)
			}
		case strings.HasPrefix(series, "oij_build_info{"):
			b := st.Build
			want := fmt.Sprintf(`oij_build_info{revision=%q,go_version=%q,gomaxprocs="%d"}`, b.Revision, b.GoVersion, b.GOMAXPROCS)
			if series != want || got != 1 {
				t.Errorf("build info %s %v, /statusz build %+v", series, got, b)
			}
		case series == "oij_utilization_epochs_total", series == "oij_request_latency_seconds_sum":
			continue // no /statusz counterpart
		default:
			t.Errorf("series %s has no /statusz counterpart listed", series)
			continue
		}
		compared++
	}
	if compared < 60 {
		t.Fatalf("compared only %d series", compared)
	}
}
