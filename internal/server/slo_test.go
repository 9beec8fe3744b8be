package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oij/internal/obs/timeline"
)

// tickTelemetry drives the epoch sampler's telemetry step by hand (collect
// → record → evaluate) with a synthetic clock, so SLO transitions are
// tested deterministically instead of racing a real ticker.
type telemetryClock struct {
	s     *Server
	now   time.Time
	epoch uint64
}

func (c *telemetryClock) tick(n int) {
	for i := 0; i < n; i++ {
		c.now = c.now.Add(time.Second)
		c.epoch++
		c.s.o.vals = c.s.o.collector.Collect(snap(c.s), time.Second, c.s.o.vals)
		c.s.o.timeline.Record(c.now, c.s.o.vals)
		c.s.slo.evaluate(c.now, c.epoch)
	}
}

func getHealthz(t *testing.T, s *Server) (int, HealthStatus) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.serveHealthz(rec, httptest.NewRequest("GET", "/healthz", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz content-type = %q", ct)
	}
	var st HealthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	return rec.Code, st
}

// TestHealthzSLOTransitions: /healthz flips 200→503 when a dimension
// breaches, holds 503 while the breach is inside the window, recovers to
// 200 once the window is clean, and leaves both transitions in the flight
// recorder.
func TestHealthzSLOTransitions(t *testing.T) {
	cfg := baseCfg()
	cfg.SLOWindow = 2 * time.Second
	cfg.SLOMemLevel = 2
	cfg.SLOP99 = 50 * time.Millisecond
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	clk := &telemetryClock{s: s, now: time.Unix(10_000, 0)}
	clk.tick(3)
	code, st := getHealthz(t, s)
	if code != http.StatusOK || !st.Healthy {
		t.Fatalf("clean server unhealthy: code=%d %+v", code, st)
	}
	if len(st.Dimensions) != 2 {
		t.Fatalf("dimensions = %+v, want p99 + mem", st.Dimensions)
	}

	// Trip the memory-pressure rung.
	s.memLevel.Store(2)
	clk.tick(1)
	code, st = getHealthz(t, s)
	if code != http.StatusServiceUnavailable || st.Healthy {
		t.Fatalf("breach not reported: code=%d %+v", code, st)
	}
	var memDim *SLODimension
	for i := range st.Dimensions {
		if st.Dimensions[i].Name == "mem_pressure" {
			memDim = &st.Dimensions[i]
		}
	}
	if memDim == nil || !memDim.Breached || memDim.Value != 2 {
		t.Fatalf("mem dimension: %+v", st.Dimensions)
	}
	if st.Transitions != 1 {
		t.Fatalf("transitions = %d, want 1", st.Transitions)
	}

	// Pressure clears, but the verdict must hold 503 until the breach ages
	// out of the trailing window (step function, not instant forgiveness).
	s.memLevel.Store(0)
	clk.tick(1)
	if code, _ := getHealthz(t, s); code != http.StatusServiceUnavailable {
		t.Fatal("verdict recovered before the window was clean")
	}
	for i := 0; i < 5; i++ {
		clk.tick(1)
		if code, _ = getHealthz(t, s); code == http.StatusOK {
			break
		}
	}
	code, st = getHealthz(t, s)
	if code != http.StatusOK || !st.Healthy {
		t.Fatalf("never recovered: code=%d %+v", code, st)
	}
	if st.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", st.Transitions)
	}

	// Both transitions are in the flight recorder.
	var sb strings.Builder
	s.flight.WriteJSON(&sb, "test")
	dump := sb.String()
	if !strings.Contains(dump, "slo_unhealthy") || !strings.Contains(dump, "slo_recovered") {
		t.Fatalf("flight recorder missing SLO transitions:\n%s", dump)
	}

	// The verdict is also a timeline series (healthy=1 during the early
	// clean epochs, 0 after the breach tick).
	if _, max, ok := s.o.timeline.WindowStats("oij_slo_healthy", 30*time.Second, clk.now); !ok || max != 1 {
		t.Fatalf("oij_slo_healthy series: max=%g ok=%v", max, ok)
	}
}

// TestHealthzDisabledIsLiveness: with no thresholds, /healthz is a plain
// 200 liveness probe with no dimensions.
func TestHealthzDisabledIsLiveness(t *testing.T) {
	s, err := New(baseCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()
	if s.slo.enabled() {
		t.Fatal("SLO enabled without thresholds")
	}
	code, st := getHealthz(t, s)
	if code != http.StatusOK || !st.Healthy || len(st.Dimensions) != 0 {
		t.Fatalf("liveness probe: code=%d %+v", code, st)
	}
}

// TestTimelineEndpoint: /timeline serves every retention tier with the
// collector-derived series, honors ?series/?res/?since, and rejects
// unknown parameters with a JSON 400.
func TestTimelineEndpoint(t *testing.T) {
	cfg := baseCfg()
	cfg.AdminAddr = "127.0.0.1:0"
	cfg.UtilEpoch = 10 * time.Millisecond
	srv, addr := startServer(t, cfg)
	base := fmt.Sprintf("http://%s", srv.AdminAddr())

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ {
		c.SendProbe(uint64(i%7), int64(1000+i*10), 1)
	}
	c.SendBase(3, 2500, 0)
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvResults(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Give the sampler a couple of epochs to land ticks in the timeline.
	deadline := time.Now().Add(5 * time.Second)
	for srv.o.timeline.Ticks() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}

	for _, res := range []string{"1s", "10s", "1m"} {
		var doc timeline.Doc
		if err := json.Unmarshal([]byte(scrape(t, base+"/timeline?res="+res)), &doc); err != nil {
			t.Fatalf("res=%s: %v", res, err)
		}
		if doc.Res != res || len(doc.Resolutions) != 3 {
			t.Fatalf("res=%s doc: res=%q resolutions=%v", res, doc.Res, doc.Resolutions)
		}
		if len(doc.Series) == 0 {
			t.Fatalf("res=%s: no series", res)
		}
	}

	var doc timeline.Doc
	body := scrape(t, base+"/timeline?series=oij_probes_total:rate,oij_slo_healthy")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Series) != 2 || doc.Series[0].Name != "oij_probes_total:rate" {
		t.Fatalf("series selection: %+v", doc.SeriesNames)
	}
	if len(doc.Series[0].Points) == 0 {
		t.Fatal("probe rate series has no points")
	}
	// The sampler ticked while probes flowed, so some slot saw a non-zero
	// rate.
	var sawRate bool
	for _, p := range doc.Series[0].Points {
		if p.Max > 0 {
			sawRate = true
		}
	}
	if !sawRate {
		t.Fatalf("probe rate never rose above zero: %+v", doc.Series[0].Points)
	}

	resp, err := http.Get(base + "/timeline?res=5s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown resolution: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error content-type = %q", ct)
	}
}

// TestHotKeysOnIngest: a skewed stream surfaces its hot key on /statusz,
// attributed with shares, and the skew gauges feed the timeline.
func TestHotKeysOnIngest(t *testing.T) {
	srv, addr := startServer(t, baseCfg())
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Key 42 takes half the probe stream; the rest spreads over 20 keys.
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			c.SendProbe(42, int64(1000+i), 1)
		} else {
			c.SendProbe(uint64(100+i%20), int64(1000+i), 1)
		}
	}
	c.SendBase(42, 3000, 0)
	if err := c.Barrier(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecvResults(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	st := srv.Statusz()
	if st.HotKeys == nil {
		t.Fatal("hot keys absent from statusz")
	}
	hk := st.HotKeys
	if hk.K != hotKeysK || len(hk.Probes.Entries) == 0 {
		t.Fatalf("hot keys shape: %+v", hk)
	}
	if hk.Probes.Entries[0].Key != 42 {
		t.Fatalf("hottest probe key = %d, want 42 (%+v)", hk.Probes.Entries[0].Key, hk.Probes.Entries)
	}
	if hk.ProbesTop1 < 0.4 || hk.ProbesTop1 > 0.6 {
		t.Fatalf("top1 share = %g, want ≈0.5", hk.ProbesTop1)
	}
	if hk.Bases.Entries[0].Key != 42 || hk.Bases.Total != 1 {
		t.Fatalf("base hot keys: %+v", hk.Bases)
	}
	// The share gauges are in the family table, so they are timeline
	// series too.
	var found bool
	for _, name := range srv.o.timeline.Names() {
		if name == "oij_hotkey_probe_top1_share" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hot-key share gauge not a timeline series: %v", srv.o.timeline.Names())
	}
}
