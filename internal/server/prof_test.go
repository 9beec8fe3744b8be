package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"oij/internal/obs/timeline"
	"oij/internal/prof"
	"oij/internal/trace"
)

// TestProfilingEndToEnd runs a server with the continuous profiler on a
// fast duty cycle and checks the whole surface: the ring fills, /profilez
// serves the manifest and raw profiles, the profiling and
// runtime-health series ride /metrics and /timeline, and the exact
// per-stage allocation counters advance with traffic.
func TestProfilingEndToEnd(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.UtilEpoch = 20 * time.Millisecond
	cfg.TraceSampleN = 1
	cfg.ProfileDir = t.TempDir()
	cfg.ProfilePeriod = 150 * time.Millisecond
	cfg.ProfileCPUSlice = 30 * time.Millisecond
	srv, addr := startServer(t, cfg)
	base := fmt.Sprintf("http://%s", srv.AdminAddr())

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ {
		c.SendProbe(uint64(i%7), int64(1000+i*10), 1)
		c.SendBase(uint64(i%7), int64(1000+i*10), 0)
	}
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvResults(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Wait for at least two periodic rounds.
	deadline := time.Now().Add(10 * time.Second)
	for srv.prof.Stats().Captures < 8 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.prof.Stats().Captures; got < 8 {
		t.Fatalf("capturer too slow: %d captures", got)
	}

	// /profilez manifest.
	var doc struct {
		Stats   prof.Stats   `json:"stats"`
		Entries []prof.Entry `json:"entries"`
	}
	if err := json.Unmarshal([]byte(scrape(t, base+"/profilez")), &doc); err != nil {
		t.Fatalf("profilez JSON: %v", err)
	}
	if len(doc.Entries) == 0 || doc.Stats.Captures == 0 {
		t.Fatalf("empty profilez manifest: %+v", doc.Stats)
	}
	kinds := map[string]bool{}
	var cpuSeq uint64
	var haveCPU bool
	for _, e := range doc.Entries {
		kinds[e.Kind] = true
		if e.Kind == "cpu" {
			cpuSeq, haveCPU = e.Seq, true
		}
	}
	for _, k := range []string{"cpu", "heap", "mutex", "block"} {
		if !kinds[k] {
			t.Fatalf("ring missing %s profiles; have %v", k, kinds)
		}
	}
	if !haveCPU {
		t.Fatal("no cpu entry")
	}

	// Fetch one profile; it must parse.
	requirePprof(t, "fetched profile", []byte(scrape(t, fmt.Sprintf("%s/profilez?id=%d", base, cpuSeq))))

	// Profiling, runtime-health, and stage-alloc series on /metrics.
	m := scrape(t, base+"/metrics")
	if v := metricValue(t, m, "oij_prof_captures_total"); v < 8 {
		t.Fatalf("oij_prof_captures_total = %g", v)
	}
	if v := metricValue(t, m, "oij_go_goroutines"); v < 1 {
		t.Fatalf("oij_go_goroutines = %g", v)
	}
	if v := metricValue(t, m, "oij_go_heap_inuse_bytes"); v <= 0 {
		t.Fatalf("oij_go_heap_inuse_bytes = %g", v)
	}
	if v := metricValue(t, m, "oij_go_gc_goal_bytes"); v <= 0 {
		t.Fatalf("oij_go_gc_goal_bytes = %g", v)
	}
	metricValue(t, m, "oij_go_gc_pause_p99_us") // present (may be 0)
	// Probe buffers grew and states were allocated while joining, and
	// every request was traced (TraceSampleN=1), so ingest and aggregate
	// books must be non-zero.
	if v := metricValue(t, m, "oij_stage_alloc_objects_ingest_total"); v <= 0 {
		t.Fatalf("ingest alloc objects = %g", v)
	}
	if v := metricValue(t, m, "oij_stage_alloc_objects_aggregate_total"); v <= 0 {
		t.Fatalf("aggregate alloc objects = %g", v)
	}
	if v := metricValue(t, m, "oij_stage_alloc_bytes_ingest_total"); v <= 0 {
		t.Fatalf("ingest alloc bytes = %g", v)
	}

	// /statusz carries the runtime, profiling, and stage-alloc blocks.
	var st Status
	if err := json.Unmarshal([]byte(scrape(t, base+"/statusz")), &st); err != nil {
		t.Fatalf("statusz JSON: %v", err)
	}
	if st.Runtime.Goroutines < 1 || st.Runtime.HeapInUse <= 0 {
		t.Fatalf("runtime block: %+v", st.Runtime)
	}
	if st.Profiling == nil || st.Profiling.Captures < 8 {
		t.Fatalf("profiling block: %+v", st.Profiling)
	}
	if len(st.StageAllocs) != int(trace.NumStages) {
		t.Fatalf("stage allocs: %+v", st.StageAllocs)
	}
	var ingestObjs int64
	for _, sa := range st.StageAllocs {
		if sa.Stage == "ingest" {
			ingestObjs = sa.Objects
		}
	}
	if ingestObjs <= 0 {
		t.Fatalf("ingest stage allocs: %+v", st.StageAllocs)
	}

	// The new series are timeline series too (the collector derives its
	// series from the same family table).
	tl := scrape(t, base+"/timeline?series=oij_go_goroutines,oij_prof_captures_total,oij_stage_alloc_objects_ingest_total:rate")
	var tdoc timeline.Doc
	if err := json.Unmarshal([]byte(tl), &tdoc); err != nil {
		t.Fatalf("timeline JSON: %v\n%s", err, tl)
	}
	if len(tdoc.Series) != 3 {
		t.Fatalf("timeline series: %s", tl)
	}
}

// requirePprof fails the test unless `go tool pprof` parses data.
func requirePprof(t *testing.T, what string, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "profile.pprof")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "tool", "pprof", "-raw", "-symbolize=none", path).CombinedOutput(); err != nil {
		t.Fatalf("%s unparsable by go tool pprof: %v\n%s", what, err, out)
	}
}

// TestProfilezDisabled asserts /profilez 404s without a profile dir.
func TestProfilezDisabled(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	srv, _ := startServer(t, cfg)
	resp, err := http.Get(fmt.Sprintf("http://%s/profilez", srv.AdminAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404 when profiling disabled, got %d", resp.StatusCode)
	}
}

// TestProfileConfigRejected asserts a bad profiling config fails server
// construction instead of limping.
func TestProfileConfigRejected(t *testing.T) {
	cfg := baseCfg()
	cfg.ProfileDir = t.TempDir()
	cfg.ProfilePeriod = time.Second
	cfg.ProfileCPUSlice = 2 * time.Second
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "shorter than Period") {
		t.Fatalf("want slice/period error, got %v", err)
	}
}

// TestIncidentTriggersCapture drives the server into memory pressure and
// asserts the incident path captured an out-of-cycle profile whose flight
// sequence does not precede the incident's.
func TestIncidentTriggersCapture(t *testing.T) {
	cfg := baseCfg()
	cfg.ProfileDir = t.TempDir()
	cfg.ProfilePeriod = time.Hour // periodic loop parked: captures = incidents only
	cfg.ProfileCPUSlice = 30 * time.Millisecond
	srv, _ := startServer(t, cfg)

	srv.incident("mem-pressure")

	deadline := time.Now().Add(10 * time.Second)
	for len(srv.prof.Entries()) < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	entries := srv.prof.Entries()
	if len(entries) < 2 {
		t.Fatalf("incident produced %d profiles, want cpu+heap", len(entries))
	}
	if srv.prof.Stats().Incidents != 1 {
		t.Fatalf("incidents = %d", srv.prof.Stats().Incidents)
	}
	for _, e := range entries {
		if e.Reason != "mem-pressure" {
			t.Fatalf("capture reason %q", e.Reason)
		}
	}
}
