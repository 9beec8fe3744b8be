package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the first sample value of a metric (with or without
// labels) from Prometheus text output.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !(strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "{")) {
			continue // longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestAdminEndToEnd is the acceptance test: while a join is streaming, the
// admin endpoint serves Prometheus metrics, a full statusz document, and
// pprof, with counters advancing between scrapes.
func TestAdminEndToEnd(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.UtilEpoch = 20 * time.Millisecond
	srv, addr := startServer(t, cfg)
	if srv.AdminAddr() == nil {
		t.Fatal("admin address not bound")
	}
	base := fmt.Sprintf("http://%s", srv.AdminAddr())

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stream := func(n, probesPer int) {
		for i := 0; i < n; i++ {
			for p := 0; p < probesPer; p++ {
				c.SendProbe(uint64(i%7), int64(1000+i*10+p), 1)
			}
			c.SendBase(uint64(i%7), int64(1000+i*10), 0)
		}
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RecvResults(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	stream(200, 3)
	m1 := scrape(t, base+"/metrics")
	probes1 := metricValue(t, m1, "oij_probes_total")
	reqs1 := metricValue(t, m1, "oij_requests_total")
	if probes1 < 600 || reqs1 < 200 {
		t.Fatalf("first scrape: probes=%g requests=%g", probes1, reqs1)
	}
	for _, want := range []string{
		"# TYPE oij_request_latency_seconds summary",
		`oij_request_latency_seconds{quantile="0.99"}`,
		"oij_joiner_utilization",
		"oij_joiner_queue_depth",
		"oij_watermark_lag_us",
		"oij_results_total",
	} {
		if !strings.Contains(m1, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m1)
		}
	}

	// Counters advance while the join keeps streaming.
	stream(200, 3)
	m2 := scrape(t, base+"/metrics")
	if probes2 := metricValue(t, m2, "oij_probes_total"); probes2 <= probes1 {
		t.Fatalf("probes did not advance: %g -> %g", probes1, probes2)
	}
	if reqs2 := metricValue(t, m2, "oij_requests_total"); reqs2 <= reqs1 {
		t.Fatalf("requests did not advance: %g -> %g", reqs1, reqs2)
	}

	var st Status
	if err := json.Unmarshal([]byte(scrape(t, base+"/statusz")), &st); err != nil {
		t.Fatalf("statusz JSON: %v", err)
	}
	if st.Algorithm == "" || st.Joiners != 2 || len(st.PerJoiner) != 2 {
		t.Fatalf("statusz shape: %+v", st)
	}
	if st.Requests < 400 || st.Results < 400 || st.Probes < 1200 {
		t.Fatalf("statusz counters: %+v", st)
	}
	if st.Latency.Count < 400 || st.Latency.P99Ms < st.Latency.P50Ms {
		t.Fatalf("statusz latency: %+v", st.Latency)
	}
	if st.WatermarkLag <= 0 {
		// Lateness is 1000µs and the watermark trails max event time by
		// exactly that once tuples flow.
		t.Fatalf("watermark lag = %d, want > 0", st.WatermarkLag)
	}
	var processed int64
	for _, js := range st.PerJoiner {
		processed += js.Processed
		if js.QueueDepth < 0 || js.Utilization < 0 || js.Utilization > 1 {
			t.Fatalf("joiner status out of range: %+v", js)
		}
	}
	if processed == 0 {
		t.Fatal("no per-joiner processed counts")
	}

	if body := scrape(t, base+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatal("pprof index not served")
	}
}

// TestAdminRouteHeaders audits every admin route: each must answer with
// the expected status code and an exact Content-Type, so scrapers,
// dashboards, and load balancers never have to sniff bodies. New admin
// endpoints belong in this table.
func TestAdminRouteHeaders(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	srv, _ := startServer(t, cfg)
	base := fmt.Sprintf("http://%s", srv.AdminAddr())

	routes := []struct {
		path        string
		wantStatus  int
		wantType    string
		bodyMustHit string // substring the body must contain (skip when empty)
	}{
		{"/metrics", http.StatusOK, "text/plain; version=0.0.4; charset=utf-8", "# TYPE oij_probes_total counter"},
		{"/statusz", http.StatusOK, "application/json", `"per_joiner"`},
		{"/tracez", http.StatusOK, "application/json", `"spans"`},
		{"/tracez?format=chrome", http.StatusOK, "application/json", "traceEvents"},
		{"/debug/flightrecorder", http.StatusOK, "application/json", `"events"`},
		{"/timeline", http.StatusOK, "application/json", `"resolutions"`},
		{"/timeline?res=bogus", http.StatusBadRequest, "application/json", `"error"`},
		{"/healthz", http.StatusOK, "application/json", `"healthy"`},
		{"/debug/pprof/", http.StatusOK, "text/html; charset=utf-8", "goroutine"},
	}
	client := &http.Client{Timeout: 5 * time.Second}
	for _, rt := range routes {
		resp, err := client.Get(base + rt.path)
		if err != nil {
			t.Fatalf("GET %s: %v", rt.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: %v", rt.path, err)
		}
		if resp.StatusCode != rt.wantStatus {
			t.Errorf("%s: status %d, want %d", rt.path, resp.StatusCode, rt.wantStatus)
		}
		if ct := resp.Header.Get("Content-Type"); ct != rt.wantType {
			t.Errorf("%s: content-type %q, want %q", rt.path, ct, rt.wantType)
		}
		if rt.bodyMustHit != "" && !strings.Contains(string(body), rt.bodyMustHit) {
			t.Errorf("%s: body missing %q:\n%.400s", rt.path, rt.bodyMustHit, body)
		}
	}
}

// TestStatuszWithoutListen exercises the snapshot path on an idle,
// never-listening server (no watermark yet, empty histogram).
func TestStatuszWithoutListen(t *testing.T) {
	s, err := New(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	st := s.Statusz()
	if st.WatermarkLag != 0 || st.Latency.Count != 0 || st.Served != 0 {
		t.Fatalf("idle statusz: %+v", st)
	}
	if s.AdminAddr() != nil {
		t.Fatal("admin bound without AdminAddr config")
	}
}

// TestUtilizationSamplerAdvances verifies the Fig. 14 live gauge vector
// gets populated while traffic flows.
func TestUtilizationSamplerAdvances(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.UtilEpoch = 5 * time.Millisecond
	srv, addr := startServer(t, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 500; i++ {
			c.SendProbe(uint64(i%13), int64(1000+i), 1)
		}
		c.SendBase(3, 2000, 0)
		if err := c.Barrier(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RecvResults(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if srv.o.epochs.Load() > 0 {
			return // at least one epoch sampled
		}
	}
	t.Fatal("utilization sampler never closed an epoch")
}

// statuszKeyPaths is every key path of the /statusz document that
// TestStatuszKeyPaths's server produces: "a.b" is key b of object a, and
// "a[]" descends into the elements of array a. oijtop, the scenario
// simulator and the benchmark harness decode this document, so a change
// here is a change to their input.
var statuszKeyPaths = []string{
	"algorithm",
	"build", "build.go_version", "build.gomaxprocs", "build.revision",
	"effectiveness",
	"hot_keys", "hot_keys.bases", "hot_keys.bases.entries",
	"hot_keys.bases.entries[].count", "hot_keys.bases.entries[].err",
	"hot_keys.bases.entries[].key", "hot_keys.bases.k",
	"hot_keys.bases.total", "hot_keys.bases_top1_share",
	"hot_keys.bases_topk_share", "hot_keys.joiner_sharded", "hot_keys.k",
	"hot_keys.per_joiner_k", "hot_keys.probes", "hot_keys.probes.entries",
	"hot_keys.probes.entries[].count", "hot_keys.probes.entries[].err",
	"hot_keys.probes.entries[].key", "hot_keys.probes.k",
	"hot_keys.probes.total", "hot_keys.probes_top1_share",
	"hot_keys.probes_topk_share",
	"ingest_queue_depth",
	"joiners",
	"latency", "latency.count", "latency.max_ms", "latency.mean_ms",
	"latency.p50_ms", "latency.p90_ms", "latency.p999_ms", "latency.p99_ms",
	"max_event_ts_us",
	"mode",
	"overload", "overload.admission", "overload.admission_rejected",
	"overload.admission_shed_probes", "overload.buffered_probes",
	"overload.deadline_rejected", "overload.mem_cap_probes",
	"overload.mem_pressure_level", "overload.mem_shed_probes",
	"overload.nacks_dropped", "overload.request_deadline_ms",
	"overload.sessions_active", "overload.slow_consumer_grace_ms",
	"overload.slow_sessions_evicted", "overload.stall_parks",
	"pending_requests",
	"per_joiner", "per_joiner[].processed", "per_joiner[].queue_depth",
	"per_joiner[].results", "per_joiner[].utilization",
	"probes",
	"requests",
	"reschedules",
	"results",
	"runtime", "runtime.gc_goal_bytes", "runtime.gc_pause_p99_us",
	"runtime.goroutines", "runtime.heap_inuse_bytes",
	"served",
	"slo", "slo.dimensions", "slo.dimensions[].breached",
	"slo.dimensions[].name", "slo.dimensions[].threshold",
	"slo.dimensions[].unit", "slo.dimensions[].value", "slo.epoch",
	"slo.healthy", "slo.transitions", "slo.window_seconds",
	"stage_allocs", "stage_allocs[].bytes", "stage_allocs[].objects",
	"stage_allocs[].stage",
	"timeline", "timeline.memory_bytes", "timeline.resolutions",
	"timeline.series", "timeline.ticks",
	"trace", "trace.active_spans", "trace.completed_spans",
	"trace.dropped_spans", "trace.flight_dumps", "trace.flight_events",
	"trace.sample_every",
	"unbalancedness",
	"uptime_seconds",
	"wal_errors",
	"wal_recovered_frames",
	"wal_skipped_frames",
	"wal_truncated_bytes",
	"watermark_lag_us",
	"watermark_us",
}

// jsonKeyPaths adds the key path of every object key below v to out.
func jsonKeyPaths(prefix string, v any, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			out[p] = true
			jsonKeyPaths(p, child, out)
		}
	case []any:
		for _, child := range v {
			jsonKeyPaths(prefix+"[]", child, out)
		}
	}
}

// TestStatuszKeyPaths pins /statusz's field set: a live document, decoded
// without the Status type, has exactly the key paths listed above.
// Sections that only some configurations emit (replication, profiling)
// are not pinned here.
func TestStatuszKeyPaths(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.UtilEpoch = 5 * time.Millisecond
	cfg.RequestDeadline = time.Minute
	cfg.MemCapProbes = 1 << 20
	cfg.SLOWatermarkLag = time.Hour
	srv, addr := startServer(t, cfg)
	base := "http://" + srv.AdminAddr().String()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		c.SendProbe(uint64(i%7), int64(1000+i*10), 1)
	}
	c.SendBase(3, 2000, 0)
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvResults(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	var doc map[string]any
	deadline := time.Now().Add(5 * time.Second)
	for {
		doc = nil
		if err := json.Unmarshal([]byte(scrape(t, base+"/statusz")), &doc); err != nil {
			t.Fatal(err)
		}
		// The SLO block lists its dimensions once an epoch has scored it.
		slo, _ := doc["slo"].(map[string]any)
		if epoch, _ := slo["epoch"].(float64); epoch > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no SLO epoch scored")
		}
		time.Sleep(5 * time.Millisecond)
	}
	paths := map[string]bool{}
	jsonKeyPaths("", doc, paths)
	got := make([]string, 0, len(paths))
	for p := range paths {
		got = append(got, p)
	}
	slices.Sort(got)
	want := slices.Clone(statuszKeyPaths)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		for _, p := range got {
			if !slices.Contains(want, p) {
				t.Errorf("/statusz has unlisted key path %q", p)
			}
		}
		for _, p := range want {
			if !slices.Contains(got, p) {
				t.Errorf("/statusz lacks key path %q", p)
			}
		}
		t.Logf("got:\n%s", strings.Join(got, "\n"))
	}
}
