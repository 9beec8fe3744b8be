package chaos_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oij/internal/agg"
	"oij/internal/chaos"
	"oij/internal/engine"
	"oij/internal/prof"
	"oij/internal/server"
	"oij/internal/trace"
	"oij/internal/window"
)

// soakStats aggregates what the client fleet observed; the soak asserts
// server-side counters against these.
type soakStats struct {
	mu          sync.Mutex
	latencies   []time.Duration // successful (admitted) request rounds
	nacks       int64
	failed      int64 // rounds that failed even after retries (fault phase only)
	disconnects int64
}

func (st *soakStats) record(d time.Duration) {
	st.mu.Lock()
	st.latencies = append(st.latencies, d)
	st.mu.Unlock()
}

func (st *soakStats) p99() time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.latencies) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), st.latencies...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)*99)/100]
}

// TestSoakOverloadAndRecovery drives a bursty client fleet through the
// chaos proxy against a fully armed server (admission policy, request
// deadline, memory cap, slow-consumer grace) across three phases — clean,
// faulted (latency + partial writes + stalls + a connection drop + a
// never-reading consumer), recovered — and asserts the degradation ladder:
// no deadlock anywhere, the slow session evicted and counted, shed/NACK
// accounting consistent between clients, /statusz, and /metrics, bounded
// p99 for admitted requests in clean phases, and a return to a NACK-free
// steady state once faults clear.
func TestSoakOverloadAndRecovery(t *testing.T) {
	clients, warmRounds, faultRounds, recoverRounds := 8, 8, 24, 12
	if testing.Short() {
		clients, warmRounds, faultRounds, recoverRounds = 4, 4, 10, 6
	}

	// MemCapProbes is set low enough that the warmup fleet alone crosses
	// both pressure rungs, so the flight recorder is guaranteed to hold
	// mem_level transitions with sequence numbers before the fault-phase
	// slow-consumer eviction. The flight ring is sized so the post-fault
	// traffic cannot wash those events out before the final assertions.
	// The SLO thresholds arm the /healthz verdict: MemCapProbes=300 means
	// the warmup fleet alone crosses pressure rung 1, so the soak is
	// guaranteed at least one healthy→unhealthy SLO transition with the
	// flight-recorder evidence trail behind it.
	// ProfilePeriod is parked at an hour so every profile in the ring is
	// an incident capture — the soak then proves the incident path (SLO
	// breach, mem pressure, eviction) reaches the continuous profiler.
	flightDump := filepath.Join(t.TempDir(), "flight-incident.json")
	profileDir := filepath.Join(t.TempDir(), "prof-ring")
	cfg := server.Config{
		Admission:         server.AdmissionShedProbes,
		RequestDeadline:   5 * time.Second,
		MemCapProbes:      300,
		SlowConsumerGrace: 300 * time.Millisecond,
		ResultBuffer:      32,
		AdminAddr:         "127.0.0.1:0",
		TraceSampleN:      8,
		FlightRing:        2048,
		FlightDumpPath:    flightDump,
		ProfileDir:        profileDir,
		ProfilePeriod:     time.Hour,
		ProfileCPUSlice:   50 * time.Millisecond,
		UtilEpoch:         50 * time.Millisecond,
		SLOWindow:         time.Second,
		SLOMemLevel:       1,
		Engine: engine.Config{
			Joiners: 2,
			Window:  window.Spec{Pre: 10_000_000, Lateness: 10_000},
			Agg:     agg.Sum,
		},
	}
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown()

	proxy, err := chaos.Listen(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var stats soakStats
	var ts atomic.Int64 // shared virtual event clock
	ts.Store(1000)

	round := func(rc *server.RetryClient, key uint64) error {
		t0 := time.Now()
		err := rc.Do(func(c *server.Client) error {
			base := ts.Add(100)
			for i := int64(0); i < 20; i++ {
				if err := c.SendProbe(key, base+i, 1); err != nil {
					return err
				}
			}
			for i := int64(0); i < 3; i++ {
				if _, err := c.SendBase(key, base+50+i, 0); err != nil {
					return err
				}
			}
			if err := c.Barrier(); err != nil {
				return err
			}
			_, err := c.RecvResults(15 * time.Second)
			return err
		})
		var nerr *server.NackError
		if errors.As(err, &nerr) {
			atomic.AddInt64(&stats.nacks, 1)
		}
		if errors.Is(err, server.ErrDisconnected) {
			atomic.AddInt64(&stats.disconnects, 1)
		}
		if err == nil {
			stats.record(time.Since(t0))
		}
		return err
	}

	runPhase := func(name string, rounds int, strict bool) {
		var wg sync.WaitGroup
		for id := 0; id < clients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				rc := server.NewRetryClient(proxy.Addr(), server.DialOptions{
					DialTimeout:  2 * time.Second,
					ReadTimeout:  15 * time.Second,
					WriteTimeout: 5 * time.Second,
				})
				rc.Backoff = server.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond}
				rc.Breaker = server.Breaker{Threshold: 4, Cooldown: 100 * time.Millisecond}
				rc.MaxAttempts = 10
				defer rc.Close()
				for r := 0; r < rounds; r++ {
					if err := round(rc, uint64(id+1)); err != nil {
						if strict {
							t.Errorf("%s: client %d round %d: %v", name, id, r, err)
							return
						}
						atomic.AddInt64(&stats.failed, 1)
					}
				}
			}(id)
		}
		awaitStep(t, doneWhen(&wg), 3*time.Minute, "the "+name+" phase's clients")
	}

	// Phase 1: clean warmup — everything must succeed.
	runPhase("warmup", warmRounds, true)

	// Phase 2: degrade the network and add a never-reading consumer. While
	// the faults run, hammer every observability endpoint concurrently —
	// the scrape paths must stay readable (and race-clean) exactly when
	// someone would be debugging the incident.
	proxy.SetLatency(2*time.Millisecond, 3*time.Millisecond)
	proxy.SetChunk(7)
	proxy.SetStall(64, 10*time.Millisecond)

	adminBase := fmt.Sprintf("http://%s", s.AdminAddr())
	scrapeStop := make(chan struct{})
	// Stop the scrapers on every exit path, so a failed step does not
	// leave them spinning for the rest of the package run.
	stopScrapes := sync.OnceFunc(func() { close(scrapeStop) })
	defer stopScrapes()
	var scrapeWG sync.WaitGroup
	var scrapes atomic.Int64
	for _, url := range []string{
		adminBase + "/metrics",
		adminBase + "/statusz",
		adminBase + "/tracez",
		adminBase + "/debug/flightrecorder",
		adminBase + "/timeline",
		adminBase + "/healthz",
		adminBase + "/profilez",
	} {
		scrapeWG.Add(1)
		go func(u string) {
			defer scrapeWG.Done()
			for {
				select {
				case <-scrapeStop:
					return
				default:
				}
				resp, err := http.Get(u)
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					scrapes.Add(1)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(url)
	}

	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		// Dial the server directly (not via the proxy) with a tiny receive
		// buffer so kernel TCP buffering cannot absorb the unread results —
		// the server's send side must actually block past the grace period.
		raw, err := net.Dial("tcp", addr.String())
		if err != nil {
			return
		}
		if tc, ok := raw.(*net.TCPConn); ok {
			tc.SetReadBuffer(2048)
		}
		c := server.NewClient(raw)
		defer c.Close()
		// Request answers, never read them: the server must evict this
		// session after SlowConsumerGrace instead of wedging a joiner.
		// The volume must out-run tcp_wmem autotuning (4MB here) so the
		// server's send side genuinely blocks rather than buffering.
		for i := int64(0); i < 1<<18; i++ {
			if _, err := c.SendBase(99, ts.Load()+i, 0); err != nil {
				return
			}
			if i%512 == 0 {
				if err := c.Flush(); err != nil {
					return
				}
			}
		}
		c.Flush()
		<-time.After(2 * time.Second) // hold the unread connection open
	}()

	faultHalf := faultRounds / 2
	runPhase("fault-a", faultHalf, false)
	// Partition mid-phase so live sessions actually reset and clients must
	// reconnect through backoff.
	dropDone := make(chan struct{})
	go func() {
		defer close(dropDone)
		time.Sleep(100 * time.Millisecond)
		proxy.DropActive()
	}()
	runPhase("fault-b", faultRounds-faultHalf, false)
	awaitStep(t, dropDone, 10*time.Second, "the mid-phase partition (proxy.DropActive)")
	awaitStep(t, slowDone, 30*time.Second, "the never-reading client's send loop (it blocks until the server evicts and closes its session)")
	if proxy.DroppedConns.Load() < 1 {
		t.Error("partition dropped no live sessions")
	}

	// Phase 3: clear every fault and require a clean steady state.
	proxy.ClearFaults()
	waitFor(t, 10*time.Second, "slow session eviction", func() bool {
		return s.Statusz().Overload.SlowSessionsEvicted >= 1
	})
	nacksBefore := atomic.LoadInt64(&stats.nacks)
	runPhase("recovery", recoverRounds, true)
	stopScrapes()
	awaitStep(t, doneWhen(&scrapeWG), 30*time.Second, "the observability scrapers to stop")
	if scrapes.Load() == 0 {
		t.Error("observability endpoints unreadable during the soak")
	}
	if d := atomic.LoadInt64(&stats.nacks) - nacksBefore; d != 0 {
		t.Errorf("recovery phase saw %d NACKs, want 0", d)
	}

	// Bounded p99 for admitted requests across the whole soak: every
	// recorded latency is a request the server accepted and answered.
	if p99 := stats.p99(); p99 <= 0 || p99 > 10*time.Second {
		t.Errorf("admitted-request p99 = %v", p99)
	}

	// Accounting: the overload ladder's transitions all surface as
	// counters, and /statusz agrees with /metrics at quiesce.
	st := s.Statusz()
	if st.Overload.SlowSessionsEvicted < 1 {
		t.Errorf("slow sessions evicted = %d, want >= 1", st.Overload.SlowSessionsEvicted)
	}
	if clientNacks := atomic.LoadInt64(&stats.nacks); clientNacks > 0 &&
		st.Overload.DeadlineRejected+st.Overload.Rejected+st.Overload.NacksDropped < clientNacks {
		t.Errorf("clients saw %d NACKs but server counted %+v", clientNacks, st.Overload)
	}
	admin := s.AdminAddr()
	if admin == nil {
		t.Fatal("no admin endpoint")
	}
	metrics := httpGet(t, fmt.Sprintf("http://%s/metrics", admin))
	for metric, want := range map[string]int64{
		"oij_slow_sessions_evicted_total": st.Overload.SlowSessionsEvicted,
		"oij_admission_shed_probes_total": st.Overload.ShedProbes,
		"oij_admission_rejected_total":    st.Overload.Rejected,
		"oij_deadline_rejected_total":     st.Overload.DeadlineRejected,
		"oij_mem_shed_probes_total":       st.Overload.MemShedProbes,
		"oij_transport_stall_parks_total": -1, // presence only
		"oij_stalled_joiners":             -1,
		"oij_mem_pressure_level":          -1,
		"oij_buffered_probes":             -1,
	} {
		line := metricLine(metrics, metric)
		if line == "" {
			t.Errorf("metric %s missing from /metrics", metric)
			continue
		}
		if want >= 0 && !strings.HasSuffix(line, fmt.Sprintf(" %d", want)) {
			t.Errorf("metric %s = %q, statusz says %d", metric, line, want)
		}
	}
	var statusz struct {
		Overload struct {
			SlowSessionsEvicted int64 `json:"slow_sessions_evicted"`
		} `json:"overload"`
	}
	if err := json.Unmarshal([]byte(httpGet(t, fmt.Sprintf("http://%s/statusz", admin))), &statusz); err != nil {
		t.Fatalf("statusz decode: %v", err)
	}
	if statusz.Overload.SlowSessionsEvicted != st.Overload.SlowSessionsEvicted {
		t.Errorf("statusz HTTP evictions = %d, direct = %d",
			statusz.Overload.SlowSessionsEvicted, st.Overload.SlowSessionsEvicted)
	}

	// The SLO evaluator must have witnessed the warmup pressure spike: at
	// least one healthy→unhealthy transition, scored over the timeline.
	if st.SLO.Transitions < 1 {
		t.Errorf("SLO transitions = %d, want >= 1 (MemCapProbes crossing should trip SLOMemLevel=1)", st.SLO.Transitions)
	}

	// Hot-key analytics: the never-reading consumer pushed ~256k bases of
	// key 99 — orders of magnitude more than the fleet's bases — so the
	// merged SpaceSaving sketch must rank it first.
	if st.HotKeys == nil {
		t.Fatal("hot-key analytics absent from /statusz")
	} else if es := st.HotKeys.Bases.Entries; len(es) == 0 || es[0].Key != 99 {
		t.Errorf("merged hot base keys = %+v, want key 99 first", es)
	}

	// The timeline must be live (ticking, all three resolutions) and its
	// memory bound honoured: series x slots x slot size, O(100KB), not
	// growing with soak length.
	if st.Timeline.Ticks == 0 || len(st.Timeline.Resolutions) != 3 {
		t.Errorf("timeline not live: %+v", st.Timeline)
	}
	if st.Timeline.MemoryBytes > 8<<20 {
		t.Errorf("timeline memory %d bytes exceeds its fixed budget", st.Timeline.MemoryBytes)
	}

	// The trace layer must have survived the soak: sampled spans from the
	// healthy fleet completed, and the slow consumer's abandoned requests
	// are accounted as drops, not leaks.
	tracezBody := httpGet(t, adminBase+"/tracez")
	var tz trace.TracezDoc
	if err := json.Unmarshal([]byte(tracezBody), &tz); err != nil {
		t.Fatalf("tracez decode: %v", err)
	}
	if tz.SampleEvery != 8 {
		t.Errorf("tracez sample_every = %d", tz.SampleEvery)
	}
	completeSpans := 0
	for _, sp := range tz.Spans {
		if sp.Complete {
			completeSpans++
		}
	}
	if completeSpans == 0 {
		t.Errorf("no complete spans on /tracez after the soak (completed=%d dropped=%d)", tz.Completed, tz.Dropped)
	}

	// Every eviction and detected stall must have left a flight event, and
	// the control-plane story must read in causal (sequence) order: memory
	// pressure rose before the slow consumer was finally evicted.
	flightBody := httpGet(t, adminBase+"/debug/flightrecorder")
	var fd trace.FlightDoc
	if err := json.Unmarshal([]byte(flightBody), &fd); err != nil {
		t.Fatalf("flight recorder decode: %v", err)
	}
	var evictions, memLevels, stalls, sloFlips, profCaptures int64
	var firstPressureSeq, evictionSeq uint64
	for i, ev := range fd.Events {
		if i > 0 && fd.Events[i-1].Seq >= ev.Seq {
			t.Fatalf("flight events out of sequence order at %d: %d >= %d", i, fd.Events[i-1].Seq, ev.Seq)
		}
		switch ev.Kind {
		case "slow_eviction":
			evictions++
			evictionSeq = ev.Seq
		case "mem_level":
			memLevels++
			if ev.A > 0 && firstPressureSeq == 0 {
				firstPressureSeq = ev.Seq
			}
		case "stall_detected":
			stalls++
		case "slo_unhealthy", "slo_recovered":
			sloFlips++
		case "prof_capture":
			profCaptures++
		}
	}
	if evictions != st.Overload.SlowSessionsEvicted {
		t.Errorf("flight recorder holds %d slow_eviction events, server evicted %d", evictions, st.Overload.SlowSessionsEvicted)
	}
	if memLevels == 0 {
		t.Error("no mem_level transitions in the flight recorder (MemCapProbes should have tripped during warmup)")
	}
	if sloFlips == 0 {
		t.Error("no slo_unhealthy/slo_recovered events in the flight recorder (SLOMemLevel=1 should have tripped with the pressure rung)")
	}
	if firstPressureSeq == 0 || evictionSeq == 0 || firstPressureSeq >= evictionSeq {
		t.Errorf("pressure-before-eviction ordering violated: first mem pressure seq %d, eviction seq %d",
			firstPressureSeq, evictionSeq)
	}

	// The incident path must also have reached the continuous profiler:
	// with the periodic loop parked, every ring entry is an out-of-cycle
	// incident capture, its flight sequence stamped AFTER the incident
	// that triggered it — the capture manifest reads in causal order
	// against the flight timeline.
	if profCaptures == 0 {
		t.Error("no prof_capture events in the flight recorder (incidents should trigger out-of-cycle captures)")
	}
	var profilezBody string
	var pdoc struct {
		Entries []prof.Entry `json:"entries"`
	}
	waitFor(t, 10*time.Second, "incident profile captures", func() bool {
		profilezBody = httpGet(t, adminBase+"/profilez")
		pdoc.Entries = nil
		if err := json.Unmarshal([]byte(profilezBody), &pdoc); err != nil {
			return false
		}
		return len(pdoc.Entries) >= 2
	})
	for _, e := range pdoc.Entries {
		if e.Reason == "periodic" {
			t.Errorf("periodic capture %d in an incident-only ring: %+v", e.Seq, e)
		}
		if e.FlightSeq == 0 || e.FlightSeq < firstPressureSeq {
			t.Errorf("capture %d (%s/%s) flight seq %d precedes the first incident seq %d",
				e.Seq, e.Kind, e.Reason, e.FlightSeq, firstPressureSeq)
		}
	}

	// The eviction (and the mem-pressure escalations before it) must have
	// produced an incident dump on disk.
	waitFor(t, 5*time.Second, "flight incident dump", func() bool {
		_, err := os.Stat(flightDump)
		return err == nil
	})
	dumpBytes, err := os.ReadFile(flightDump)
	if err != nil {
		t.Fatal(err)
	}
	var dump trace.FlightDoc
	if err := json.Unmarshal(dumpBytes, &dump); err != nil {
		t.Fatalf("flight dump decode: %v", err)
	}
	if dump.Reason == "" || len(dump.Events) == 0 {
		t.Errorf("flight dump empty: reason=%q events=%d", dump.Reason, len(dump.Events))
	}
	if fd.Dumps < 1 {
		t.Errorf("flight recorder dump counter = %d", fd.Dumps)
	}

	// When CI points OIJ_SOAK_ARTIFACT_DIR at a directory, leave the trace
	// ring, the flight timeline, and the telemetry timeline behind for the
	// workflow to upload.
	if dir := os.Getenv("OIJ_SOAK_ARTIFACT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string]string{
			"soak-tracez.json":        tracezBody,
			"soak-flight.json":        flightBody,
			"soak-incident-dump.json": string(dumpBytes),
			"soak-timeline.json":      httpGet(t, adminBase+"/timeline"),
			"soak-profilez.json":      profilezBody,
		} {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Logf("soak: %d admitted rounds (p99 %v), %d NACKs, %d disconnects, %d failed fault-phase rounds, %d scrapes, overload=%+v, flight: %d mem / %d stall / %d evict events",
		len(stats.latencies), stats.p99(), stats.nacks, stats.disconnects, stats.failed, scrapes.Load(), st.Overload, memLevels, stalls, evictions)
}

// awaitStep waits for done, failing the test with the step's name after
// timeout instead of leaving it to hang until the package timeout.
func awaitStep(t *testing.T, done <-chan struct{}, timeout time.Duration, step string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("soak stuck for %v waiting for %s", timeout, step)
	}
}

// doneWhen returns a channel closed once wg's counter reaches zero.
func doneWhen(wg *sync.WaitGroup) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricLine returns the sample line for a metric name (exact match, not a
// prefix of a longer name).
func metricLine(metrics, name string) string {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimSpace(line)
		}
	}
	return ""
}
